package cache_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"specmine/internal/obs"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/store/cache"
	"specmine/internal/stream"
)

// buildStore ingests traces durable-mode across several sessions — each
// open/close cycle canonicalises the shard WALs into one segment per shard —
// then reopens the store quiescent, the state the pool snapshots.
// CompactBytes 1 keeps the resulting tiny segments from being merged behind
// the test's back.
func buildStore(t *testing.T, shards, sessions, tracesPerSession int) *store.Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "traces")
	for s := 0; s < sessions; s++ {
		ts, err := store.Open(store.Options{Dir: dir, Shards: shards, CompactBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := stream.Open(stream.Config{FlushBatch: 4, Store: ts})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tracesPerSession; i++ {
			id := fmt.Sprintf("s%dtr%03d", s, i)
			evs := []string{"open", fmt.Sprintf("op%d", i%7), "use", "close"}
			if err := ing.Ingest(id, evs...); err != nil {
				t.Fatal(err)
			}
			if err := ing.CloseTrace(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(store.Options{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestPoolCatalogOrder decodes every segment through the pool and checks that
// the concatenation in catalog order reproduces the recovered database.
func TestPoolCatalogOrder(t *testing.T) {
	st := buildStore(t, 3, 3, 20)
	want := st.Recovered().Database(st.Dict())
	p := cache.New(st, cache.Options{})
	if p.NumTraces() != want.NumSequences() {
		t.Fatalf("pool covers %d traces, recovered db has %d", p.NumTraces(), want.NumSequences())
	}
	var got []seqdb.Sequence
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		if sg.Base != len(got) {
			t.Fatalf("segment %d base %d, want %d", i, sg.Base, len(got))
		}
		got = append(got, sg.Seqs...)
		sg.Unpin()
	}
	if len(got) != len(want.Sequences) {
		t.Fatalf("pool decoded %d traces want %d", len(got), len(want.Sequences))
	}
	for i := range got {
		if len(got[i]) != len(want.Sequences[i]) {
			t.Fatalf("trace %d: %d events want %d", i, len(got[i]), len(want.Sequences[i]))
		}
		for j := range got[i] {
			if got[i][j] != want.Sequences[i][j] {
				t.Fatalf("trace %d event %d: %d want %d", i, j, got[i][j], want.Sequences[i][j])
			}
		}
	}
}

// TestPoolHitsAndMisses pins the same segment twice under an unlimited
// budget: one miss, one hit, no evictions.
func TestPoolHitsAndMisses(t *testing.T) {
	st := buildStore(t, 2, 2, 12)
	p := cache.New(st, cache.Options{})
	for round := 0; round < 2; round++ {
		sg, err := p.Pin(0)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
	}
	m := p.Metrics()
	if m.Misses != 1 || m.Hits != 1 {
		t.Fatalf("metrics %v: want 1 miss, 1 hit", m)
	}
	if m.Evictions != 0 {
		t.Fatalf("unlimited budget evicted %d entries", m.Evictions)
	}
	if m.BodiesOpened != 1 || m.SegmentsOpened != 1 {
		t.Fatalf("metrics %v: want 1 body decode of 1 distinct segment", m)
	}
}

// TestPoolEviction cycles through every segment under a budget that holds
// roughly one of them: later pins evict earlier entries, re-pinning re-decodes,
// and the resident estimate returns to at most the budget once unpinned.
func TestPoolEviction(t *testing.T) {
	st := buildStore(t, 2, 4, 12)
	p := cache.New(st, cache.Options{})
	if p.NumSegments() < 4 {
		t.Fatalf("fixture sealed only %d segments", p.NumSegments())
	}
	// Size the budget off a real segment so the test tracks the estimator.
	sg, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	sg.Unpin()
	one := p.Metrics().PeakBytes

	p = cache.New(st, cache.Options{BudgetBytes: one + one/2})
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
	}
	m := p.Metrics()
	if m.Evictions == 0 {
		t.Fatalf("budget %d never evicted across %d segments: %v", one+one/2, p.NumSegments(), m)
	}
	if m.CurBytes > one+one/2 {
		t.Fatalf("resident %d bytes exceeds budget %d with nothing pinned", m.CurBytes, one+one/2)
	}
	// Re-pinning an evicted segment is a miss again.
	before := p.Metrics().Misses
	sg, err = p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	sg.Unpin()
	if p.Metrics().Misses != before+1 {
		t.Fatal("evicted segment was served without a re-decode")
	}
}

// TestPoolPinnedNeverEvicted holds every segment pinned at once under a tiny
// budget: the pool must overshoot rather than evict a pinned entry, and every
// pinned view must stay valid.
func TestPoolPinnedNeverEvicted(t *testing.T) {
	st := buildStore(t, 2, 3, 12)
	p := cache.New(st, cache.Options{BudgetBytes: 1})
	var pins []*cache.Segment
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, sg)
	}
	if m := p.Metrics(); m.Evictions != 0 {
		t.Fatalf("evicted %d entries while everything was pinned", m.Evictions)
	}
	for i, sg := range pins {
		if len(sg.Seqs) != p.Meta(i).NumTraces() {
			t.Fatalf("pinned segment %d shows %d traces want %d", i, len(sg.Seqs), p.Meta(i).NumTraces())
		}
		sg.Unpin()
	}
	// With all pins released the pool must shrink back under the budget (here:
	// evict everything, since no segment fits in one byte).
	if m := p.Metrics(); m.CurBytes > 1 {
		t.Fatalf("resident %d bytes after releasing all pins under a 1-byte budget", m.CurBytes)
	}
}

// TestPoolStatsResident loads stats for every segment without ever opening a
// body, then checks stats survive eviction of their data entry.
func TestPoolStatsResident(t *testing.T) {
	st := buildStore(t, 2, 3, 12)
	p := cache.New(st, cache.Options{BudgetBytes: 1})
	for i := 0; i < p.NumSegments(); i++ {
		s, err := p.Stats(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumDistinctEvents() == 0 {
			t.Fatalf("segment %d stats empty", i)
		}
	}
	if m := p.Metrics(); m.BodiesOpened != 0 {
		t.Fatalf("loading stats decoded %d bodies", m.BodiesOpened)
	}
	// Cycle data through the 1-byte budget: every unpin evicts, but stats stay.
	for i := 0; i < p.NumSegments(); i++ {
		sg, err := p.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		sg.Unpin()
		if _, err := p.Stats(i); err != nil {
			t.Fatalf("stats for %d lost after eviction: %v", i, err)
		}
	}
}

// TestPoolFragment checks the per-segment index fragment agrees with a fresh
// build and is charged to the budget.
func TestPoolFragment(t *testing.T) {
	st := buildStore(t, 2, 2, 12)
	p := cache.New(st, cache.Options{})
	sg, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Unpin()
	bare := p.Metrics().CurBytes
	frag := sg.Fragment()
	if frag2 := sg.Fragment(); frag2 != frag {
		t.Fatal("second Fragment call rebuilt the index")
	}
	if p.Metrics().CurBytes <= bare {
		t.Fatal("fragment not charged to the budget")
	}
	want := seqdb.BuildPositionIndex(sg.Seqs, st.Dict().Size())
	for e := 0; e < st.Dict().Size(); e++ {
		a, b := frag.SeqsContaining(seqdb.EventID(e)), want.SeqsContaining(seqdb.EventID(e))
		if len(a) != len(b) {
			t.Fatalf("event %d: fragment lists %d seqs want %d", e, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d seq %d: fragment %d want %d", e, i, a[i], b[i])
			}
		}
	}
}

// TestPoolConcurrentPins hammers the pool from several goroutines under a
// small budget; correctness is checked by trace counts and the race detector.
func TestPoolConcurrentPins(t *testing.T) {
	st := buildStore(t, 3, 3, 16)
	p := cache.New(st, cache.Options{BudgetBytes: 4 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				i := rng.Intn(p.NumSegments())
				sg, err := p.Pin(i)
				if err != nil {
					t.Errorf("pin %d: %v", i, err)
					return
				}
				if len(sg.Seqs) != p.Meta(i).NumTraces() {
					t.Errorf("segment %d: %d traces want %d", i, len(sg.Seqs), p.Meta(i).NumTraces())
				}
				if k%3 == 0 {
					sg.Fragment()
				}
				sg.Unpin()
			}
		}(int64(g))
	}
	wg.Wait()
	m := p.Metrics()
	if m.Hits+m.Misses != 8*200 {
		t.Fatalf("hits %d + misses %d != %d pins", m.Hits, m.Misses, 8*200)
	}
}

// TestCacheFollowsCatalog: one cache across runs on a writable handle. A
// run after compaction replaced every segment drops the replaced entries and
// their bytes, decodes the merged segments afresh, and still reproduces the
// recovered database; Close gives the resident bytes back to the registry.
func TestCacheFollowsCatalog(t *testing.T) {
	built := buildStore(t, 2, 4, 12)
	dir := built.Dir()
	want := built.Recovered().Database(built.Dict())
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, CompactBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	c := cache.NewCache(st, reg)

	sweep := func(p *cache.Pool) []seqdb.Sequence {
		var got []seqdb.Sequence
		for i := 0; i < p.NumSegments(); i++ {
			sg, err := p.Pin(i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, sg.Seqs...)
			sg.Fragment()
			sg.Unpin()
		}
		return got
	}
	before := c.Begin(0)
	sweep(before)
	if n := before.NumSegments(); n < 4 {
		t.Fatalf("fixture has %d segments", n)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after := c.Begin(0)
	if after.NumSegments() >= before.NumSegments() {
		t.Fatalf("compaction left %d segments of %d", after.NumSegments(), before.NumSegments())
	}
	if m := after.Metrics(); m.CurBytes != 0 {
		t.Fatalf("%d bytes of replaced segments still resident", m.CurBytes)
	}
	got := sweep(after)
	if m := after.Metrics(); m.BodiesOpened != int64(after.NumSegments()) || m.Hits != 0 {
		t.Fatalf("after compaction: %v; want every merged segment decoded afresh", m)
	}
	if len(got) != want.NumSequences() {
		t.Fatalf("swept %d traces, recovered %d", len(got), want.NumSequences())
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want.Sequences[i]) {
			t.Fatalf("trace %d: %v want %v", i, got[i], want.Sequences[i])
		}
	}
	c.Close()
	if s, _ := reg.Find("cache.resident_bytes"); s.Value != 0 {
		t.Fatalf("cache.resident_bytes = %d after Close", s.Value)
	}
}
