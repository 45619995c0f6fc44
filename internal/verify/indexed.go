package verify

import (
	"specmine/internal/rules"
	"specmine/internal/seqdb"
)

// Indexed (planned) evaluation: the pull-based counterpart of the online
// automaton. The online Checker pays O(events) per trace regardless of which
// rules could possibly fire; the IndexedChecker instead descends the premise
// trie on demand over a PositionIndex, so a planner can decide — per rule,
// per trace, from statistics — how much of the machinery to run at all:
//
//   - ActionSatisfied: some premise event is provably absent, so the rule has
//     zero temporal points on this trace. Only SatisfiedTraces is bumped —
//     exactly Checker.Close's zero-temporal-point path.
//   - ActionShortCircuit: the premise may fire but some consequent event is
//     provably absent, so the consequent cannot embed anywhere (late = -1).
//     Temporal points are still enumerated, but the consequent evaluation is
//     skipped: every temporal point is a violation.
//   - ActionEvaluate: full evaluation through the index.
//
// The evaluation itself reproduces the online automaton's state exactly:
//
//   - first premise-prefix completions by chained NextAfter over the trie
//     (a node's first completion is the first occurrence of its event
//     strictly after its parent's first completion), memoised per node so
//     rules sharing prefixes descend once;
//   - a group's temporal points are the occurrences of its final event
//     strictly after the prefix completion — a subslice of the postings
//     arena, no copying;
//   - a consequent's latest embedding start by a backward PrevBefore greedy,
//     memoised per distinct consequent — equal to the forward DP's
//     latest-embedding entry at trace end.
//
// Reports produced through CheckSeq are byte-identical to feeding the trace
// through Checker.Advance/Close: same counters, same violations in the same
// order. The equivalence suites in the plan package pin this.

// RuleAction tells the indexed checker how much of one rule's machinery to
// run on one trace. The zero value is full evaluation, so a nil action slice
// means "evaluate everything".
type RuleAction uint8

const (
	// ActionEvaluate runs the full indexed evaluation.
	ActionEvaluate RuleAction = iota
	// ActionSatisfied records the trace as trivially satisfied (zero temporal
	// points). Only sound when some premise event does not occur in the trace.
	ActionSatisfied
	// ActionShortCircuit enumerates temporal points but skips the consequent
	// evaluation, treating every temporal point as violated. Only sound when
	// some consequent event does not occur in the trace.
	ActionShortCircuit
)

// IndexedChecker evaluates the engine's rule set over a PositionIndex, one
// trace per CheckSeq call. Not safe for concurrent use; create one per
// goroutine. Scratch is epoch-stamped, so reuse across traces never clears
// arrays.
type IndexedChecker struct {
	e   *Engine
	idx *seqdb.PositionIndex

	epoch     uint32
	g         []int32 // memoised first completion per trie node (epoch-stamped)
	gStamp    []uint32
	late      []int32 // memoised latest embedding start per distinct post
	lateStamp []uint32
	path      []int32 // trie-descent scratch
}

// NewIndexedChecker returns an indexed checker over idx. The index must cover
// the traces CheckSeq is called with; event ids outside the index's space
// simply never occur (their premises cannot complete).
func (e *Engine) NewIndexedChecker(idx *seqdb.PositionIndex) *IndexedChecker {
	return &IndexedChecker{
		e:         e,
		idx:       idx,
		g:         make([]int32, len(e.trieEvent)),
		gStamp:    make([]uint32, len(e.trieEvent)),
		late:      make([]int32, len(e.posts)),
		lateStamp: make([]uint32, len(e.posts)),
	}
}

// SetIndex rebinds the checker to another index — the next segment's fragment
// in an out-of-core sweep. All memoised state is per-trace and invalidated at
// the top of every CheckSeq, so rebinding costs nothing beyond the pointer.
func (c *IndexedChecker) SetIndex(idx *seqdb.PositionIndex) { c.idx = idx }

// CheckSeq evaluates every rule against trace s of the index, folding the
// outcome into reports (from Engine.NewReports) as sequence seq — the two
// differ when s is a segment-local index and seq the global trace ordinal.
// actions must be nil (evaluate everything) or have NumRules entries; the
// soundness conditions on each action are the caller's responsibility (the
// plan package derives them from presence probes and segment statistics).
func (c *IndexedChecker) CheckSeq(s, seq int, actions []RuleAction, reports []RuleReport) {
	e := c.e
	seqdb.BumpEpoch(&c.epoch, c.gStamp, c.lateStamp)
	for r := range e.ruleSet {
		rep := &reports[r]
		action := ActionEvaluate
		if actions != nil {
			action = actions[r]
		}
		if action == ActionSatisfied {
			rep.SatisfiedTraces++
			continue
		}
		var tps []int32
		if pg := c.nodeG(s, e.rulePreNode[r]); pg != notYet {
			tps = c.idx.PositionsFrom(s, e.ruleLast[r], int(pg)+1)
		}
		if len(tps) == 0 {
			rep.SatisfiedTraces++
			continue
		}
		rep.TotalTemporalPoints += len(tps)
		late := int32(-1)
		if action == ActionEvaluate {
			late = c.postLate(s, e.rulePost[r])
		}
		sat := lowerBound(tps, late)
		rep.SatisfiedTemporalPoints += sat
		if sat == len(tps) {
			rep.SatisfiedTraces++
			continue
		}
		rep.ViolatedTraces++
		for _, tp := range tps[sat:] {
			rep.Violations = append(rep.Violations, RuleViolation{
				Rule: e.ruleSet[r], Seq: seq, TemporalPoint: int(tp),
			})
		}
	}
}

// nodeG returns the position at which node's premise prefix first completes
// in trace s (notYet when it never does), memoised for the current trace. The
// first completion of a node is the first occurrence of its event strictly
// after its parent's first completion — completing each prefix event as early
// as possible is what the online automaton's monotone g[] computes.
func (c *IndexedChecker) nodeG(s int, node int32) int32 {
	if node == 0 {
		return -1 // the empty prefix completes before position 0
	}
	e := c.e
	path := c.path[:0]
	n := node
	for n != 0 && c.gStamp[n] != c.epoch {
		path = append(path, n)
		n = e.trieParent[n]
	}
	g := int32(-1)
	if n != 0 {
		g = c.g[n]
	}
	for i := len(path) - 1; i >= 0; i-- {
		n = path[i]
		if g != notYet {
			g = c.idx.NextAfter(s, e.trieEvent[n], int(g)+1)
			if g < 0 {
				g = notYet
			}
		}
		c.g[n] = g
		c.gStamp[n] = c.epoch
	}
	c.path = path[:0]
	return g
}

// postLate returns the latest position from which distinct consequent pi
// embeds into trace s, or -1 when it does not embed, memoised for the current
// trace. Matching the consequent backwards — each event as late as possible —
// yields the latest start, which is the value the online DP's full-length
// entry holds at trace end.
func (c *IndexedChecker) postLate(s int, pi int32) int32 {
	if c.lateStamp[pi] == c.epoch {
		return c.late[pi]
	}
	post := c.e.posts[pi]
	q := int32(c.idx.SeqLen(s))
	for j := len(post) - 1; j >= 0 && q >= 0; j-- {
		q = c.idx.PrevBefore(s, post[j], int(q))
	}
	c.late[pi] = q
	c.lateStamp[pi] = c.epoch
	return q
}

// Rule returns compiled rule i. Together with RuleGroup and RulePost it lets
// a planner derive probe sets without re-walking the trie.
func (e *Engine) Rule(i int) rules.Rule { return e.ruleSet[i] }

// RuleGroup returns the premise group of rule i: rules in one group share
// their whole premise, hence their temporal points.
func (e *Engine) RuleGroup(i int) int { return int(e.ruleGroup[i]) }

// RulePost returns the index of rule i's consequent among the engine's
// distinct consequents.
func (e *Engine) RulePost(i int) int { return int(e.rulePost[i]) }
