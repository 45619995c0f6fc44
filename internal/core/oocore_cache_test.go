package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"specmine/internal/seqdb"
)

// reopenOutOfCore closes a store built by buildSegmentedStore and reopens
// its directory out-of-core, so the catalog stays fixed for the test.
func reopenOutOfCore(t *testing.T, ts *TraceStore, reg *MetricsRegistry) *TraceStore {
	t.Helper()
	dir := ts.Dir()
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenStore(dir, StoreOptions{OutOfCore: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lazy.Close() })
	return lazy
}

// selectiveRules are rules over session 0's cluster events only, so a check
// pins session 0's segments and skips every other one.
func selectiveRules(db *Database) []Rule {
	return []Rule{
		EvaluateRule(db, ParsePattern(db.Dict, "c0_a"), ParsePattern(db.Dict, "c0_b")),
		EvaluateRule(db, ParsePattern(db.Dict, "c0_b"), ParsePattern(db.Dict, "use")),
	}
}

// TestOutOfCoreCacheWarmRerun: a second identical CheckStore on one handle
// with an unlimited budget is served from the handle's cache — the same
// summary, no body decoded, every pin a hit — and counts its skips exactly
// as the cold call did, even after a full MineStore warmed every segment.
func TestOutOfCoreCacheWarmRerun(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	lazy := reopenOutOfCore(t, ts, nil)
	rules := selectiveRules(db)

	cold, coldStats, err := CheckStore(lazy, rules, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.SegmentsSkipped == 0 || coldStats.BodiesOpened == 0 {
		t.Fatalf("fixture neither skips nor decodes: %+v", coldStats)
	}
	warm, warmStats, err := CheckStore(lazy, rules, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Render(db.Dict, 5) != cold.Render(db.Dict, 5) {
		t.Fatalf("warm CheckStore diverges:\n%s\nvs\n%s", warm.Render(db.Dict, 5), cold.Render(db.Dict, 5))
	}
	pins := coldStats.CacheHits + coldStats.CacheMisses
	if warmStats.BodiesOpened != 0 || warmStats.CacheMisses != 0 || warmStats.CacheHits != pins {
		t.Fatalf("warm rerun: %d bodies opened, %d misses, %d hits; want 0, 0, %d",
			warmStats.BodiesOpened, warmStats.CacheMisses, warmStats.CacheHits, pins)
	}
	if warmStats.SegmentsSkipped != coldStats.SegmentsSkipped {
		t.Fatalf("warm rerun skipped %d segments, cold %d", warmStats.SegmentsSkipped, coldStats.SegmentsSkipped)
	}

	// Mining seeds from every segment; the selective check that follows
	// still skips what it never pins.
	if _, stats, err := MineStore(lazy, PatternOptions{MinSupportRel: 0.2, MaxLength: 3}, OutOfCoreOptions{}); err != nil {
		t.Fatal(err)
	} else if stats.SegmentsSkipped != 0 {
		t.Fatalf("full mining skipped %d segments", stats.SegmentsSkipped)
	}
	_, afterMine, err := CheckStore(lazy, rules, OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if afterMine.SegmentsSkipped != coldStats.SegmentsSkipped || afterMine.BodiesOpened != 0 {
		t.Fatalf("check after mining skipped %d segments (cold %d) and opened %d bodies",
			afterMine.SegmentsSkipped, coldStats.SegmentsSkipped, afterMine.BodiesOpened)
	}
}

// TestOutOfCoreCacheBudgetShrink: a call's CacheBytes becomes the handle
// cache's budget when the call starts, so a call with a smaller budget after
// an unlimited one evicts down to it — even a call that pins nothing.
func TestOutOfCoreCacheBudgetShrink(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	reg := NewMetrics()
	lazy := reopenOutOfCore(t, ts, reg)
	rules := queryRules(t, db)

	if _, _, err := CheckStore(lazy, rules, OutOfCoreOptions{}); err != nil {
		t.Fatal(err)
	}
	full := counterVal(t, reg, "cache.resident_bytes")
	if full == 0 {
		t.Fatal("unlimited check left nothing resident")
	}
	budget := full / 3
	// A window past the last trace prunes every segment from the catalog.
	nothing := Where{From: db.NumSequences()}
	_, stats, _, err := CheckStoreWhere(lazy, rules, nothing, OutOfCoreOptions{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits+stats.CacheMisses != 0 {
		t.Fatalf("empty window pinned %d segments", stats.CacheHits+stats.CacheMisses)
	}
	if stats.CacheEvictions == 0 {
		t.Fatal("smaller budget evicted nothing")
	}
	if got := counterVal(t, reg, "cache.resident_bytes"); got > budget {
		t.Fatalf("resident %d bytes after shrinking the budget to %d", got, budget)
	}
}

// TestOutOfCoreCacheReleasedOnClose: the handle's cache reports to the
// registry the handle was opened with, and Close gives its resident bytes
// back to the cache.resident_bytes gauge. Calls after Close fail.
func TestOutOfCoreCacheReleasedOnClose(t *testing.T) {
	ts := buildSegmentedStore(t, 2, 3, 20)
	db := ts.Recovered().Database(ts.Dict())
	reg := NewMetrics()
	lazy := reopenOutOfCore(t, ts, reg)
	// The per-call registry is another one: cache.* must not go there.
	callReg := NewMetrics()
	if _, _, err := CheckStore(lazy, queryRules(t, db), OutOfCoreOptions{Obs: callReg}); err != nil {
		t.Fatal(err)
	}
	if counterVal(t, reg, "cache.resident_bytes") == 0 {
		t.Fatal("handle registry shows no resident bytes after a check")
	}
	if _, ok := callReg.Find("cache.pins"); ok {
		t.Fatal("cache series went to the per-call registry")
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counterVal(t, reg, "cache.resident_bytes"); got != 0 {
		t.Fatalf("cache.resident_bytes = %d after Close", got)
	}
	if _, _, err := CheckStore(lazy, queryRules(t, db), OutOfCoreOptions{}); err == nil {
		t.Fatal("CheckStore on a closed handle succeeded")
	}
}

// recoverCopy is Recover over a copy of dir taken now, so a test can read a
// store's state while its handle stays open (Recover would need the lock).
func recoverCopy(t *testing.T, dir string) *Database {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "copy")
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	db, err := Recover(cp)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestOutOfCoreCacheSeesPublishedSegment: on a writable handle the catalog
// may grow between calls. A segment published between two CheckStore calls
// shows up in the second result, each result equals CheckRules over the
// store as recovered at that point, and the segment both calls see is
// decoded once.
func TestOutOfCoreCacheSeesPublishedSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	ts, err := OpenStore(dir, StoreOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	dict := ts.Dict()
	seq := func(names ...string) seqdb.Sequence {
		s := make(seqdb.Sequence, len(names))
		for i, n := range names {
			s[i] = dict.Intern(n)
		}
		return s
	}
	sl := ts.Shard(0)
	var sealed []seqdb.Sequence
	publish := func(batch int, traces ...seqdb.Sequence) {
		t.Helper()
		for i, tr := range traces {
			id := fmt.Sprintf("b%dt%02d", batch, i)
			if err := sl.LogEvents(id, tr, func() {}); err != nil {
				t.Fatal(err)
			}
			if err := sl.LogSeal(id, func() {}); err != nil {
				t.Fatal(err)
			}
			sealed = append(sealed, tr)
		}
		if err := sl.WriteSegment(sealed); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, rules []Rule) *OutOfCoreStats {
		t.Helper()
		db := recoverCopy(t, dir)
		want, err := CheckRules(db, rules)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := CheckStore(ts, rules, OutOfCoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Render(dict, 5) != want.Render(db.Dict, 5) {
			t.Fatalf("%s: CheckStore diverges from CheckRules over Recover:\n%s\nvs\n%s",
				label, got.Render(dict, 5), want.Render(db.Dict, 5))
		}
		return stats
	}

	var batch []seqdb.Sequence
	for i := 0; i < 8; i++ {
		batch = append(batch, seq("open", "use", "close"))
	}
	// One segment per batch: too few for the background compactor to merge.
	publish(1, batch...)
	db := recoverCopy(t, dir)
	rules := []Rule{
		EvaluateRule(db, ParsePattern(db.Dict, "open"), ParsePattern(db.Dict, "close")),
		EvaluateRule(db, ParsePattern(db.Dict, "open"), ParsePattern(db.Dict, "use")),
	}
	first := check("before publish", rules)
	// The second batch interns a new event, so the event-id space grows too.
	publish(2, seq("open", "use", "crash"), seq("open", "close"))
	second := check("after publish", rules)
	if second.SegmentsTotal != first.SegmentsTotal+1 {
		t.Fatalf("catalog went from %d to %d segments; want one more", first.SegmentsTotal, second.SegmentsTotal)
	}
	if second.BodiesOpened != 1 {
		t.Fatalf("second check opened %d bodies; want only the new segment's", second.BodiesOpened)
	}
}

// TestOutOfCoreCacheConcurrentCalls runs MineStoreRules and CheckStoreWhere
// concurrently on one handle under a budget far below the decoded store:
// every result still equals its in-memory counterpart.
func TestOutOfCoreCacheConcurrentCalls(t *testing.T) {
	ts := buildSegmentedStore(t, 3, 4, 20)
	db := ts.Recovered().Database(ts.Dict())
	lazy := reopenOutOfCore(t, ts, NewMetrics())
	ropts := RuleOptions{MinSeqSupportRel: 0.2, MinConfidence: 0.6,
		MaxPremiseLength: 2, MaxConsequentLength: 2, Workers: 2}
	wantR, err := MineRules(db, ropts)
	if err != nil {
		t.Fatal(err)
	}
	wantR.Stats.Duration = 0
	where := queryPredicates(db)["c0-or-c2"]
	wantW := checkWhereOracle(t, db, wantR.Rules, where).Render(db.Dict, 5)
	oo := OutOfCoreOptions{CacheBytes: 2 << 10}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got, _, err := MineStoreRules(lazy, ropts, oo)
				if err != nil {
					t.Error(err)
					return
				}
				got.Stats.Duration = 0
				if !reflect.DeepEqual(got, wantR) {
					t.Error("concurrent MineStoreRules diverges from MineRules")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got, _, _, err := CheckStoreWhere(lazy, wantR.Rules, where, oo)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Render(db.Dict, 5) != wantW {
					t.Error("concurrent CheckStoreWhere diverges from the in-memory oracle")
					return
				}
			}
		}()
	}
	wg.Wait()
}
