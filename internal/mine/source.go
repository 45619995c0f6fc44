package mine

import "specmine/internal/seqdb"

// Per-seed views. Both pattern-growth miners drive their search through a
// Source: each frequent seed event's subtree is mined against a SeedView that
// contains exactly the traces the subtree can ever touch. In memory the view
// is the whole database (MemSource, one zero-copy view for every seed); out
// of core it is assembled per seed from the segment catalog and the
// pin-and-evict cache, and segment skipping lives in that Source: per-segment
// statistics decide which bodies a seed needs, so a segment whose stats prove
// the seed event absent is never opened.
//
// The contract that makes per-seed mining byte-identical for every Source:
//
//   - every pattern/premise grown from seed e starts with e, so its
//     supporting traces, extension counts and closedness witnesses all live
//     in traces containing e;
//   - SeedView.DB holds at least those traces, in ascending global order, and
//     Global maps local sequence ids back to global ones (nil: identity);
//   - the view's index is built over the full event-id space (NumEvents), so
//     per-event scratch tables size identically.

// SeedView is one seed's slice of the database: the traces containing the
// seed event (or all traces), their index, and the local→global id mapping.
// Release returns the view's pinned segments to the cache; the view must not
// be used after.
type SeedView struct {
	DB  *seqdb.Database
	Idx *seqdb.PositionIndex
	// Global maps view-local sequence ids to global ones, ascending; nil
	// when the view is the whole database and local ids are global.
	Global []int32
	// Release unpins the backing segments. Always non-nil.
	Release func()
}

// Identity reports whether local sequence ids are global ones, so no
// remapping is needed in either direction.
func (v *SeedView) Identity() bool { return v.Global == nil }

// LocalOf maps a global sequence id back to the view-local id via binary
// search over the ascending Global table. The id must be present.
func (v *SeedView) LocalOf(global int32) int32 {
	if v.Identity() {
		return global
	}
	lo, hi := 0, len(v.Global)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.Global[mid] < global {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// Source supplies per-seed views of a database. Implementations must be safe
// for concurrent AcquireSeed calls from multiple mining workers.
type Source interface {
	// NumSequences is the global trace count — the denominator for relative
	// support thresholds.
	NumSequences() int
	// NumEvents is the event-id space (dictionary size).
	NumEvents() int
	// InstanceCount is event e's global occurrence count. The miners
	// schedule their seeds heaviest first by it.
	InstanceCount(e seqdb.EventID) int64
	// FrequentByInstanceCount lists, ascending, the events whose global
	// occurrence count reaches min — PositionIndex.
	// FrequentEventsByInstanceCount over the whole database.
	FrequentByInstanceCount(min int) []seqdb.EventID
	// FrequentBySeqSupport lists, ascending, the events whose global
	// sequence support reaches min.
	FrequentBySeqSupport(min int) []seqdb.EventID
	// AcquireSeed pins and assembles the view for one seed event. The caller
	// must call Release exactly once.
	AcquireSeed(e seqdb.EventID) (*SeedView, error)
}

// MemSource returns the Source over an in-memory database. Its views are all
// one zero-copy view of the whole database and its flat index, with the
// identity id map, so mining through it costs no assembly and no remapping.
func MemSource(db *seqdb.Database) Source {
	idx := db.FlatIndex()
	return &memSource{idx: idx, view: SeedView{DB: db, Idx: idx, Release: func() {}}}
}

type memSource struct {
	idx  *seqdb.PositionIndex
	view SeedView
}

func (s *memSource) NumSequences() int { return s.view.DB.NumSequences() }
func (s *memSource) NumEvents() int    { return s.idx.NumEvents() }

func (s *memSource) InstanceCount(e seqdb.EventID) int64 {
	return int64(s.idx.EventInstanceCount(e))
}

func (s *memSource) FrequentByInstanceCount(min int) []seqdb.EventID {
	return s.idx.FrequentEventsByInstanceCount(min)
}

func (s *memSource) FrequentBySeqSupport(min int) []seqdb.EventID {
	return s.idx.FrequentEventsBySeqSupport(min)
}

func (s *memSource) AcquireSeed(seqdb.EventID) (*SeedView, error) { return &s.view, nil }
