package rules

import (
	"fmt"
	"sort"
)

// removeRedundant applies Definition 5.2 to the mined rule set (step 5 of the
// mining outline): a rule RX is redundant when another rule RY with identical
// s-support, i-support and confidence has a concatenation that is a proper
// super-sequence of RX's, or the same concatenation with a shorter premise.
func removeRedundant(in []Rule) (kept []Rule, suppressed int) {
	kept = make([]Rule, 0, len(in))
	for _, r := range in {
		if IsRedundant(r, in) {
			suppressed++
			continue
		}
		kept = append(kept, r)
	}
	return kept, suppressed
}

// IsRedundant reports whether rule r is redundant with respect to some other
// rule in the set, per Definition 5.2.
func IsRedundant(r Rule, set []Rule) bool {
	rc := r.Concat()
	for _, other := range set {
		if other.SeqSupport != r.SeqSupport ||
			other.InstanceSupport != r.InstanceSupport ||
			!floatEqual(other.Confidence, r.Confidence) {
			continue
		}
		oc := other.Concat()
		if r.Pre.Equal(other.Pre) && r.Post.Equal(other.Post) {
			continue // the same rule
		}
		if rc.Equal(oc) {
			// Same concatenation: the rule with the longer premise (and hence
			// the shorter consequent) is the redundant one.
			if len(r.Pre) > len(other.Pre) {
				return true
			}
			continue
		}
		if len(oc) > len(rc) && rc.IsSubsequenceOf(oc) {
			return true
		}
	}
	return false
}

// FilterRedundant returns the non-redundant subset of the given rules. It is
// exposed so that callers holding a full rule set (for example from MineFull)
// can derive the non-redundant view without re-mining.
func FilterRedundant(in []Rule) []Rule {
	out := make([]Rule, 0, len(in))
	for _, r := range in {
		if !IsRedundant(r, in) {
			out = append(out, r)
		}
	}
	return out
}

// GroupByStatistics partitions rules into equivalence classes sharing the
// same s-support, i-support and confidence. The grouping is useful for
// reporting and for reasoning about redundancy.
func GroupByStatistics(in []Rule) map[string][]Rule {
	out := make(map[string][]Rule)
	for _, r := range in {
		key := statsKey(r)
		out[key] = append(out[key], r)
	}
	for _, group := range out {
		sort.Slice(group, func(i, j int) bool {
			if len(group[i].Pre)+len(group[i].Post) != len(group[j].Pre)+len(group[j].Post) {
				return len(group[i].Pre)+len(group[i].Post) < len(group[j].Pre)+len(group[j].Post)
			}
			return group[i].Key() < group[j].Key()
		})
	}
	return out
}

func statsKey(r Rule) string {
	return fmt.Sprintf("%d/%d/%.9f", r.SeqSupport, r.InstanceSupport, r.Confidence)
}

func floatEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
