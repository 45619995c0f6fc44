package iterpattern

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"specmine/internal/qre"
	"specmine/internal/seqdb"
)

// MinedPattern is one pattern reported by a miner together with its support
// statistics.
type MinedPattern struct {
	Pattern seqdb.Pattern
	// Support is the instance support: the total number of instances across
	// the database (repetition within a sequence counts).
	Support int
	// SeqSupport is the number of distinct sequences containing at least one
	// instance.
	SeqSupport int
	// Instances holds the instance list when Options.IncludeInstances is set.
	Instances []qre.Instance
}

// String renders the mined pattern with its statistics.
func (m MinedPattern) String(dict *seqdb.Dictionary) string {
	return fmt.Sprintf("%s sup=%d seqs=%d", m.Pattern.String(dict), m.Support, m.SeqSupport)
}

// Stats aggregates counters describing a mining run. They are reported by the
// experiment harness to explain where the Closed miner's speedup comes from.
type Stats struct {
	// Seeds is the number of frequent single events whose subtrees were
	// mined.
	Seeds int
	// NodesExplored counts search-tree nodes whose support was evaluated.
	NodesExplored int
	// NodesPrunedInfrequent counts candidate extensions rejected by the
	// apriori property (Theorem 1).
	NodesPrunedInfrequent int
	// SubtreesPrunedEquivalent counts subtrees skipped by the closed miner's
	// instance-set equivalence pruning.
	SubtreesPrunedEquivalent int
	// NonClosedSuppressed counts frequent patterns withheld from the output
	// by the closedness checks.
	NonClosedSuppressed int
	// PatternsEmitted is the number of patterns in the result.
	PatternsEmitted int
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// merge accumulates the search counters of other into s. Seeds, Duration and
// PatternsEmitted are set once per run, not merged.
func (s *Stats) merge(other Stats) {
	s.NodesExplored += other.NodesExplored
	s.NodesPrunedInfrequent += other.NodesPrunedInfrequent
	s.SubtreesPrunedEquivalent += other.SubtreesPrunedEquivalent
	s.NonClosedSuppressed += other.NonClosedSuppressed
}

// Result is the outcome of a mining run.
type Result struct {
	Patterns []MinedPattern
	Stats    Stats
	// MinSupport is the absolute instance-support threshold that was applied.
	MinSupport int
}

// Sort orders the patterns by decreasing support, then by length and content,
// giving deterministic output for rendering and tests.
func (r *Result) Sort() {
	sort.Slice(r.Patterns, func(i, j int) bool {
		a, b := r.Patterns[i], r.Patterns[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return seqdb.ComparePatterns(a.Pattern, b.Pattern) < 0
	})
}

// Longest returns a pattern of maximal length (the paper's Figure 4 reports
// "the longest iterative pattern mined"); ties break toward higher support.
// It returns false when the result is empty.
func (r *Result) Longest() (MinedPattern, bool) {
	if len(r.Patterns) == 0 {
		return MinedPattern{}, false
	}
	best := r.Patterns[0]
	for _, p := range r.Patterns[1:] {
		if p.Pattern.Len() > best.Pattern.Len() ||
			(p.Pattern.Len() == best.Pattern.Len() && p.Support > best.Support) {
			best = p
		}
	}
	return best, true
}

// Find returns the mined entry for pattern p, if present.
func (r *Result) Find(p seqdb.Pattern) (MinedPattern, bool) {
	for _, m := range r.Patterns {
		if m.Pattern.Equal(p) {
			return m, true
		}
	}
	return MinedPattern{}, false
}

// Render writes a human-readable listing of up to limit patterns (all of them
// when limit <= 0) using dict for event names.
func (r *Result) Render(dict *seqdb.Dictionary, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d patterns (min support %d, %v)\n", len(r.Patterns), r.MinSupport, r.Stats.Duration.Round(time.Millisecond))
	n := len(r.Patterns)
	if limit > 0 && limit < n {
		n = limit
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  %s\n", r.Patterns[i].String(dict))
	}
	if n < len(r.Patterns) {
		fmt.Fprintf(&b, "  ... %d more\n", len(r.Patterns)-n)
	}
	return b.String()
}
