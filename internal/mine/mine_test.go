package mine

import (
	"math/rand"
	"runtime"
	"testing"

	"specmine/internal/seqdb"
)

func TestForSeedsDeterministicMerge(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		out := ForSeeds(20, workers, func() int { return 0 }, func(_ int, seed int) int {
			return seed * seed
		})
		if len(out) != 20 {
			t.Fatalf("workers=%d: %d outputs", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
}

func TestScheduleByWeight(t *testing.T) {
	weights := []int64{5, 9, 9, 1, 7}
	got := ScheduleByWeight(len(weights), func(seed int) int64 { return weights[seed] })
	want := []int{1, 2, 4, 0, 3} // descending weight, ties (9,9) by ascending seed
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v want %v", got, want)
		}
	}
}

// TestForSeedsScheduledDeterministicMerge: outputs land in seed slots
// regardless of the execution schedule, for any worker count.
func TestForSeedsScheduledDeterministicMerge(t *testing.T) {
	schedules := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		{19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		ScheduleByWeight(20, func(seed int) int64 { return int64(seed % 7) }),
	}
	for _, schedule := range schedules {
		for _, workers := range []int{1, 2, 4, 8} {
			out := ForSeedsScheduled(20, workers, schedule, func() int { return 0 }, func(_ int, seed int) int {
				return seed * seed
			})
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d schedule=%v: out[%d]=%d", workers, schedule, i, v)
				}
			}
		}
	}
}

func TestArenaRecycles(t *testing.T) {
	var a Arena[int]
	s := a.GetN(8)
	if len(s) != 8 {
		t.Fatalf("GetN(8) len=%d", len(s))
	}
	s[0] = 42
	a.Put(s)
	r := a.GetN(4)
	if cap(r) < 8 {
		t.Errorf("recycled capacity %d, want >= 8", cap(r))
	}
	// Too-large requests fall back to allocation.
	big := a.GetN(16)
	if len(big) != 16 {
		t.Fatalf("GetN(16) len=%d", len(big))
	}
	a.Put(nil) // must be a no-op
	if g := a.Get(); g != nil && len(g) != 0 {
		t.Errorf("Get returned non-empty slice")
	}
}

func TestStampSet(t *testing.T) {
	s := NewStampSet(4)
	s.Begin()
	if s.Contains(2) {
		t.Errorf("fresh set contains 2")
	}
	if !s.TestAndSet(2) {
		t.Errorf("first TestAndSet(2) = false")
	}
	if s.TestAndSet(2) {
		t.Errorf("second TestAndSet(2) = true")
	}
	s.Add(1)
	if !s.Contains(1) || !s.Contains(2) || s.Contains(0) {
		t.Errorf("membership wrong: %v %v %v", s.Contains(1), s.Contains(2), s.Contains(0))
	}
	s.Begin()
	if s.Contains(1) || s.Contains(2) {
		t.Errorf("Begin did not clear the set")
	}
}

// bruteExtensions reproduces the counting semantics directly: for every
// event, the projection entries whose suffix contains it, positioned at the
// first occurrence.
func bruteExtensions(seqs []seqdb.Sequence, proj []Proj) map[seqdb.EventID][]Proj {
	out := make(map[seqdb.EventID][]Proj)
	for _, pr := range proj {
		s := seqs[pr.Seq]
		seen := make(map[seqdb.EventID]bool)
		for j := int(pr.Pos) + 1; j < len(s); j++ {
			if seen[s[j]] {
				continue
			}
			seen[s[j]] = true
			out[s[j]] = append(out[s[j]], Proj{Seq: pr.Seq, Pos: int32(j)})
		}
	}
	return out
}

func TestExtenderAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		numSeqs := 1 + rng.Intn(5)
		alphabet := 2 + rng.Intn(4)
		seqs := make([]seqdb.Sequence, numSeqs)
		for i := range seqs {
			n := 1 + rng.Intn(12)
			s := make(seqdb.Sequence, n)
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			seqs[i] = s
		}
		idx := seqdb.BuildPositionIndex(seqs, alphabet)
		x := NewExtender(seqs, idx)

		// Random starting projection: a subset of sequences at random positions.
		var proj []Proj
		var tags []int32
		for si := range seqs {
			if rng.Intn(3) == 0 {
				continue
			}
			proj = append(proj, Proj{Seq: int32(si), Pos: int32(rng.Intn(len(seqs[si])+1)) - 1})
			tags = append(tags, int32(si*100))
		}
		want := bruteExtensions(seqs, proj)

		min := int32(1 + rng.Intn(2))
		es := x.Extensions(proj, tags, min)
		if len(es.Exts) != len(want) {
			t.Fatalf("iter %d: %d extensions, want %d", iter, len(es.Exts), len(want))
		}
		prev := seqdb.EventID(-1)
		for _, e := range es.Exts {
			if e.Event <= prev {
				t.Fatalf("iter %d: extensions not sorted by event", iter)
			}
			prev = e.Event
			w := want[e.Event]
			if int(e.Count) != len(w) {
				t.Fatalf("iter %d: event %d count %d want %d", iter, e.Event, e.Count, len(w))
			}
			if e.Count >= min {
				if len(e.Proj) != len(w) {
					t.Fatalf("iter %d: event %d materialised %d entries want %d", iter, e.Event, len(e.Proj), len(w))
				}
				for k := range w {
					if e.Proj[k] != w[k] {
						t.Fatalf("iter %d: event %d entry %d = %+v want %+v", iter, e.Event, k, e.Proj[k], w[k])
					}
					// The tag of the source entry must ride along.
					srcSeq := w[k].Seq
					if e.Tags[k] != srcSeq*100 {
						t.Fatalf("iter %d: event %d tag %d want %d", iter, e.Event, e.Tags[k], srcSeq*100)
					}
				}
			} else if e.Proj != nil {
				t.Fatalf("iter %d: event %d below threshold but materialised", iter, e.Event)
			}
		}
		x.Release(es)
	}
}

func TestSeedProj(t *testing.T) {
	seqs := []seqdb.Sequence{
		{0, 1, 0, 2},
		{2, 2, 1},
		{1, 0},
	}
	idx := seqdb.BuildPositionIndex(seqs, 3)
	x := NewExtender(seqs, idx)
	proj := x.SeedProj(2)
	want := []Proj{{Seq: 0, Pos: 3}, {Seq: 1, Pos: 0}}
	if len(proj) != len(want) {
		t.Fatalf("SeedProj(2): %+v want %+v", proj, want)
	}
	for i := range want {
		if proj[i] != want[i] {
			t.Fatalf("SeedProj(2)[%d] = %+v want %+v", i, proj[i], want[i])
		}
	}
	x.ReleaseProj(proj)
}

// TestMemSourceIdentityView: the in-memory Source serves every seed the
// whole database and its flat index with the identity id map, and its
// frequency answers are the index's.
func TestMemSourceIdentityView(t *testing.T) {
	db := seqdb.NewDatabase()
	db.AppendNames("a", "b", "a")
	db.AppendNames("b", "c")
	src := MemSource(db)
	idx := db.FlatIndex()
	for e := seqdb.EventID(0); int(e) < src.NumEvents(); e++ {
		sv, err := src.AcquireSeed(e)
		if err != nil {
			t.Fatal(err)
		}
		if sv.DB != db || sv.Idx != idx || !sv.Identity() {
			t.Fatalf("seed %d: view is not the identity view of the database", e)
		}
		if got := sv.LocalOf(1); got != 1 {
			t.Fatalf("identity LocalOf(1) = %d", got)
		}
		sv.Release()
		if got, want := src.InstanceCount(e), int64(idx.EventInstanceCount(e)); got != want {
			t.Fatalf("InstanceCount(%d) = %d, want %d", e, got, want)
		}
	}
	if src.NumSequences() != 2 {
		t.Fatalf("NumSequences = %d", src.NumSequences())
	}
	if got := src.FrequentByInstanceCount(2); len(got) != 2 {
		t.Fatalf("FrequentByInstanceCount(2) = %v, want a and b", got)
	}
	if got := src.FrequentBySeqSupport(2); len(got) != 1 {
		t.Fatalf("FrequentBySeqSupport(2) = %v, want b", got)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if got := EffectiveWorkers(0); got != 1 {
		t.Errorf("EffectiveWorkers(0)=%d want 1", got)
	}
	if got := EffectiveWorkers(3); got != 3 {
		t.Errorf("EffectiveWorkers(3)=%d want 3", got)
	}
	if got, want := EffectiveWorkers(-1), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("EffectiveWorkers(-1)=%d want GOMAXPROCS %d", got, want)
	}
}
