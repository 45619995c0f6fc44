package iterpattern

import (
	"specmine/internal/qre"
	"specmine/internal/seqdb"
)

// closednessFilter applies the closedness check of Definition 4.2 to the
// candidate patterns collected during the search. A pattern P is dropped when
// some super-sequence Q has the same support and every instance of P
// corresponds to (is contained in the span of) a distinct instance of Q.
//
// Witness super-sequences are searched slot by slot: a witness inserts a
// series of events either before the pattern (prefix), after it (suffix), or
// into one of its gaps (infix). For each slot the filter inspects the
// corresponding region of every instance — the backward window, the forward
// window, or the gap between the two neighbouring matched positions — and
// builds candidate insertions from the events common to all regions: each
// common event on its own (repeated as often as it appears when the
// multiplicities agree) and the common events taken together when their
// interleaving is identical in every region. Every candidate is then verified
// exactly against the database (instance count equality plus correspondence),
// so a pattern is only ever dropped with a genuine witness in hand.
//
// The filter is a hot path on dense workloads — it dominated the profile of
// the looping tracesim cases — so it follows the same discipline as the
// search itself: per-worker epoch-stamped scratch instead of maps, reused
// buffers instead of per-candidate allocations, and witness verification that
// is count-bounded (it aborts as soon as a witness provably has more
// instances than the pattern) and runs each trace through a single-pass
// lockstep matcher instead of re-matching from every candidate start.
func (m *miner) closednessFilter(candidates []MinedPattern) []MinedPattern {
	if m.cw == nil {
		m.cw = newClosedWorker(m.db, m.idx)
	}
	kept := candidates[:0]
	for _, cand := range candidates {
		if m.cw.isClosed(cand) {
			kept = append(kept, cand)
		} else {
			m.stats.NonClosedSuppressed++
		}
	}
	return kept
}

// closedWorker holds the reusable buffers of one closedness-checking
// goroutine. All per-event arrays are epoch-stamped (seqdb.BumpEpoch).
type closedWorker struct {
	db  *seqdb.Database
	idx *seqdb.PositionIndex

	inAlpha    []uint32 // event -> alphaEpoch when in the current alphabet
	alphaEpoch uint32

	mult      []int32  // agreed multiplicity per common event, -1 when disagreeing
	multStamp []uint32 // event -> multEpoch while a member of common
	multEpoch uint32

	cnt      []int32 // per-region multiplicity scratch
	cntStamp []uint32
	cntEpoch uint32

	common  []seqdb.EventID // events occurring in every region so far
	regions [][]seqdb.Sequence
	matched []int
	series  []seqdb.EventID // candidate insertion being built
	first   []seqdb.EventID // restriction of the first region

	exp    []int32 // lockstep matcher: start expecting q[k], or -1
	qBuf   seqdb.Pattern
	qInsts []qre.Instance
	used   []bool
}

func newClosedWorker(db *seqdb.Database, idx *seqdb.PositionIndex) *closedWorker {
	numEvents := idx.NumEvents()
	return &closedWorker{
		db:        db,
		idx:       idx,
		inAlpha:   make([]uint32, numEvents),
		mult:      make([]int32, numEvents),
		multStamp: make([]uint32, numEvents),
		cnt:       make([]int32, numEvents),
		cntStamp:  make([]uint32, numEvents),
	}
}

func (w *closedWorker) isClosed(cand MinedPattern) bool {
	p := cand.Pattern
	insts := cand.Instances
	if len(insts) == 0 {
		return true
	}
	alphaEpoch := seqdb.BumpEpoch(&w.alphaEpoch, w.inAlpha)
	for _, e := range p {
		w.inAlpha[e] = alphaEpoch
	}

	// regions[slot][k] is the event series of instance k's region for that
	// insertion slot. The region backing slices are views into the traces;
	// only the per-slot headers are (re)used worker state.
	for len(w.regions) <= len(p) {
		w.regions = append(w.regions, nil)
	}
	regions := w.regions[:len(p)+1]
	for slot := range regions {
		regions[slot] = regions[slot][:0]
	}
	for _, in := range insts {
		s := w.db.Sequences[in.Seq]
		matched := w.matchedPositions(s, p, in.Start)
		if matched == nil {
			// Should not happen: the instance was produced by the miner.
			continue
		}
		regions[0] = append(regions[0], sliceRegion(s, w.backwardWindowStart(s, in.Start), in.Start-1))
		for g := 1; g < len(p); g++ {
			regions[g] = append(regions[g], sliceRegion(s, matched[g-1]+1, matched[g]-1))
		}
		regions[len(p)] = append(regions[len(p)], sliceRegion(s, in.End+1, w.forwardWindowEnd(s, in.End)))
	}

	for slot := 0; slot <= len(p); slot++ {
		if !w.slotClosed(p, insts, slot, regions[slot]) {
			return false
		}
	}
	return true
}

// slotClosed derives the insertion series worth verifying for one slot from
// the per-instance region contents and verifies each; it reports false as
// soon as a witness is confirmed. An event can only take part in a witness if
// it occurs in every region; a single-event insertion must use the same
// multiplicity everywhere (the one-to-one correspondence requirement forces
// the witness to absorb every occurrence in the gap); and a multi-event
// insertion is proposed when the regions, restricted to the shared events
// with agreeing multiplicities, spell out the same series.
func (w *closedWorker) slotClosed(p seqdb.Pattern, insts []qre.Instance, slot int, regions []seqdb.Sequence) bool {
	if len(regions) == 0 {
		return true
	}
	// Multiplicities of the first region seed the common set.
	multEpoch := seqdb.BumpEpoch(&w.multEpoch, w.multStamp)
	common := w.common[:0]
	for _, ev := range regions[0] {
		if w.multStamp[ev] != multEpoch {
			w.multStamp[ev] = multEpoch
			w.mult[ev] = 0
			common = append(common, ev)
		}
		w.mult[ev]++
	}
	// Intersect with every further region, downgrading to multiplicity -1 on
	// disagreement. Dropped events get their stamp cleared so membership
	// stays readable from multStamp.
	for _, region := range regions[1:] {
		if len(common) == 0 {
			w.common = common
			return true
		}
		cntEpoch := seqdb.BumpEpoch(&w.cntEpoch, w.cntStamp)
		for _, ev := range region {
			if w.cntStamp[ev] != cntEpoch {
				w.cntStamp[ev] = cntEpoch
				w.cnt[ev] = 0
			}
			w.cnt[ev]++
		}
		kept := common[:0]
		for _, ev := range common {
			if w.cntStamp[ev] != cntEpoch {
				w.multStamp[ev] = 0
				continue
			}
			if w.mult[ev] != -1 && w.cnt[ev] != w.mult[ev] {
				w.mult[ev] = -1
			}
			kept = append(kept, ev)
		}
		common = kept
	}
	w.common = common
	if len(common) == 0 {
		return true
	}

	// Single-event insertions.
	agreeing := 0
	for _, ev := range common {
		c := w.mult[ev]
		if c == -1 {
			// The event occurs everywhere but with differing multiplicities;
			// a single occurrence can still witness a prefix/suffix border, so
			// propose the length-1 insertion.
			w.series = append(w.series[:0], ev)
			if w.witnesses(p, insts, slot, w.series) {
				return false
			}
			continue
		}
		agreeing++
		series := w.series[:0]
		for i := int32(0); i < c; i++ {
			series = append(series, ev)
		}
		w.series = series
		if w.witnesses(p, insts, slot, series) {
			return false
		}
		if c > 1 {
			w.series = append(w.series[:0], ev)
			if w.witnesses(p, insts, slot, w.series) {
				return false
			}
		}
	}

	// Multi-event insertion: the restriction of every region to the agreeing
	// events, when identical across regions. Membership is read from the mult
	// stamps, so restrictions are compared in place without materialising
	// more than the first one.
	if agreeing > 1 {
		first := w.first[:0]
		for _, ev := range regions[0] {
			if w.multStamp[ev] == multEpoch && w.mult[ev] != -1 {
				first = append(first, ev)
			}
		}
		w.first = first
		same := len(first) > 0
		for _, region := range regions[1:] {
			if !same {
				break
			}
			i := 0
			for _, ev := range region {
				if w.multStamp[ev] != multEpoch || w.mult[ev] == -1 {
					continue
				}
				if i >= len(first) || first[i] != ev {
					same = false
					break
				}
				i++
			}
			if i != len(first) {
				same = false
			}
		}
		if same && w.witnesses(p, insts, slot, first) {
			return false
		}
	}
	return true
}

// witnesses verifies exactly whether inserting series at the given slot of p
// produces a super-pattern with identical support whose instances contain the
// instances of p (Definition 4.2). Verification is count-bounded: finding
// more instances than p has refutes the witness immediately.
func (w *closedWorker) witnesses(p seqdb.Pattern, insts []qre.Instance, slot int, series []seqdb.EventID) bool {
	q := append(w.qBuf[:0], p[:slot]...)
	q = append(q, series...)
	q = append(q, p[slot:]...)
	w.qBuf = q
	qInsts, ok := w.findInstancesBounded(q, len(insts))
	if !ok || len(qInsts) != len(insts) {
		return false
	}
	return w.correspondsTo(insts, qInsts)
}

// findInstancesBounded returns every instance of q across the database in
// (sequence, start) order, reusing the worker's buffer, or ok=false as soon
// as more than limit instances exist.
//
// Each trace is scanned once with a lockstep automaton instead of re-matching
// from every occurrence of q[0]. The QRE semantics make this exact: the gaps
// of an instance may not contain any alphabet event, so every partial match
// alive at an alphabet-event position must consume that event (advance) or
// die. Partial matches therefore march in lockstep, and since every new match
// starts at an alphabet event too, at most one partial match occupies each
// automaton stage — the state is one start position per stage.
func (w *closedWorker) findInstancesBounded(q seqdb.Pattern, limit int) ([]qre.Instance, bool) {
	alphaEpoch := seqdb.BumpEpoch(&w.alphaEpoch, w.inAlpha)
	for _, e := range q {
		w.inAlpha[e] = alphaEpoch
	}
	L := len(q)
	if cap(w.exp) < L {
		w.exp = make([]int32, L)
	}
	exp := w.exp[:L]
	out := w.qInsts[:0]
	defer func() { w.qInsts = out[:0] }()

	// Only sequences containing every event of q can host an instance; the
	// postings walk keeps the (sequence, start) output order.
scan:
	for _, si32 := range w.idx.SeqsContaining(q[0]) {
		si := int(si32)
		for _, e := range q[1:] {
			if e != q[0] && w.idx.Positions(si, e) == nil {
				continue scan
			}
		}
		s := w.db.Sequences[si]
		for k := range exp {
			exp[k] = -1
		}
		for j, ev := range s {
			if w.inAlpha[ev] != alphaEpoch {
				continue
			}
			if L == 1 {
				if ev == q[0] {
					if len(out) >= limit {
						return nil, false
					}
					out = append(out, qre.Instance{Seq: si, Start: j, End: j})
				}
				continue
			}
			// A match expecting the final event completes here or dies; the
			// remaining stages shift down (descending order reads pre-update
			// values); stage 1 restarts when this event can open an instance.
			if exp[L-1] != -1 && q[L-1] == ev {
				if len(out) >= limit {
					return nil, false
				}
				out = append(out, qre.Instance{Seq: si, Start: int(exp[L-1]), End: j})
			}
			for k := L - 1; k >= 2; k-- {
				if q[k-1] == ev {
					exp[k] = exp[k-1]
				} else {
					exp[k] = -1
				}
			}
			if ev == q[0] {
				exp[1] = int32(j)
			} else {
				exp[1] = -1
			}
		}
	}
	return out, true
}

// correspondsTo reports whether every instance in sub corresponds to a unique
// instance in super (Definition 4.2, condition 2), reusing the worker's used
// mask. Both slices are sorted by (Seq, Start).
func (w *closedWorker) correspondsTo(sub, super []qre.Instance) bool {
	if cap(w.used) < len(super) {
		w.used = make([]bool, len(super))
	}
	used := w.used[:len(super)]
	for i := range used {
		used[i] = false
	}
	for _, si := range sub {
		found := false
		for j, qi := range super {
			if used[j] {
				continue
			}
			if qi.Contains(si) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sliceRegion returns s[lo..hi] clamped to valid bounds (empty when hi < lo).
func sliceRegion(s seqdb.Sequence, lo, hi int) seqdb.Sequence {
	if lo < 0 {
		lo = 0
	}
	if hi >= len(s) {
		hi = len(s) - 1
	}
	if hi < lo {
		return nil
	}
	return s[lo : hi+1]
}

// matchedPositions returns the positions of every pattern event for the
// instance of p starting at start, or nil if no instance starts there. The
// result is appended into the worker's buffer, valid until the next call.
// Alphabet membership is read from the inAlpha stamps set by isClosed.
func (w *closedWorker) matchedPositions(s seqdb.Sequence, p seqdb.Pattern, start int) []int {
	if start < 0 || start >= len(s) || s[start] != p[0] {
		return nil
	}
	out := append(w.matched[:0], start)
	pos := start
	for k := 1; k < len(p); k++ {
		pos++
		for pos < len(s) && w.inAlpha[s[pos]] != w.alphaEpoch {
			pos++
		}
		if pos >= len(s) || s[pos] != p[k] {
			w.matched = out
			return nil
		}
		out = append(out, pos)
	}
	w.matched = out
	return out
}

// backwardWindowStart returns the first position of the backward window of an
// instance starting at start: the window extends from start-1 backwards up to
// and including the nearest earlier event of the pattern's alphabet.
func (w *closedWorker) backwardWindowStart(s seqdb.Sequence, start int) int {
	for i := start - 1; i >= 0; i-- {
		if w.inAlpha[s[i]] == w.alphaEpoch {
			return i
		}
	}
	return 0
}

// forwardWindowEnd returns the last position of the forward window of an
// instance ending at end: the window extends from end+1 forwards up to and
// including the nearest later event of the pattern's alphabet.
func (w *closedWorker) forwardWindowEnd(s seqdb.Sequence, end int) int {
	for i := end + 1; i < len(s); i++ {
		if w.inAlpha[s[i]] == w.alphaEpoch {
			return i
		}
	}
	return len(s) - 1
}
