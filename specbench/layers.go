package main

import (
	"fmt"

	"specmine/internal/core"
)

// layerMetrics are the traced run's per-layer figures, grouped by the
// layer (package) they describe. README.md says which end-to-end metric
// each should move, and on which workload.
var layerMetrics = []metricDef{
	{"stream.close_s", "s", "lower"},
	{"stream.flush_s", "s", "lower"},
	{"stream.backpressure_waits", "count", "lower"},
	{"stream.backpressure_wait_s", "s", "lower"},
	{"stream.events_acked", "count", "higher"},
	{"stream.live_events_per_s", "events/s", "higher"},
	{"stream.live_events_per_s_no_rules", "events/s", "higher"},

	{"store.open_s", "s", "lower"},
	{"store.close_s", "s", "lower"},
	{"store.wal_flushes", "count", "lower"},
	{"store.wal_flush_bytes", "B", "lower"},
	{"store.wal_flush_s", "s", "lower"},
	{"store.segment_publish_s", "s", "lower"},
	{"store.segments_published", "count", "lower"},
	{"store.compaction_runs", "count", "lower"},
	{"store.segments", "count", "lower"},
	{"store.segments_hist", "count", "lower"},
	{"store.segments_live", "count", "lower"},
	{"store.wal_bytes", "B", "lower"},
	{"store.segment_bytes", "B", "lower"},

	{"cache.pins", "count", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.hits_plus_misses", "count", "lower"},
	{"cache.hit_rate", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},
	{"cache.bodies_opened", "count", "lower"},
	{"cache.peak_mb", "MB", "lower"},
	{"cache.decode_s", "s", "lower"},
	{"cache.decoded_mb", "MB", "lower"},

	{"core.segments_total", "count", "lower"},
	{"core.segments_skipped", "count", "higher"},

	{"rules.premises_explored", "count", "lower"},
	{"rules.consequents_explored", "count", "lower"},
	{"rules.premises_pruned_redundant", "count", "higher"},
	{"rules.rules_suppressed_redundant", "count", "higher"},
	{"rules.rules_emitted", "count", "higher"},
	{"mine.seeds", "count", "lower"},
	{"rules.search_s", "s", "lower"},

	{"verify.traces_checked", "count", "lower"},
	{"verify.traces_skipped", "count", "higher"},
	{"verify.rule_trace_gates", "count", "higher"},
	{"verify.consequent_short_circuits", "count", "higher"},
	{"verify.probes_issued", "count", "lower"},
	{"verify.segments_checked", "count", "lower"},
	{"verify.segments_skipped", "count", "higher"},
	{"verify.violations", "count", "lower"},
	{"verify.online_s", "s", "lower"},

	{"plan.segments_pruned", "count", "higher"},
	{"plan.traces_selected", "count", "lower"},

	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_s", "s", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
}

// layerValue is a per-layer metric reduced over the traced repetitions.
type layerValue struct {
	median float64
	repeat string // "exact", or the range it varied over
}

// seriesTotal is a registry series summed over its label sets: the value
// of a counter or gauge, or a histogram's sum and count.
type seriesTotal struct{ value, sum, count float64 }

func seriesTotals(reg *core.MetricsRegistry) map[string]seriesTotal {
	out := map[string]seriesTotal{}
	for _, s := range reg.Snapshot() {
		t := out[s.Name]
		t.value += float64(s.Value)
		t.sum += float64(s.Sum)
		t.count += float64(s.Count)
		out[s.Name] = t
	}
	return out
}

// layerValues reads one traced repetition's per-layer figures.
func layerValues(r *rep) map[string]float64 {
	ser := seriesTotals(r.reg)
	ns := func(name string) float64 { return ser[name].sum / 1e9 }
	value := func(name string) float64 { return ser[name].value }
	st := r.ruleStats
	hits, misses := value("cache.hits"), value("cache.misses")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = hits / (hits + misses)
	}
	var segsTotal, segsSkipped int
	for _, s := range []*core.OutOfCoreStats{r.mineOO, r.checkOO} {
		segsTotal += s.SegmentsTotal
		segsSkipped += s.SegmentsSkipped
	}
	v := r.checkOO.Verify
	return map[string]float64{
		"stream.close_s":                    r.tr.total("stream.Close"),
		"stream.flush_s":                    ns("stream.flush_ns"),
		"stream.backpressure_waits":         value("stream.backpressure_waits"),
		"stream.backpressure_wait_s":        ns("stream.backpressure_wait_ns"),
		"stream.events_acked":               value("stream.events_acked"),
		"stream.live_events_per_s":          r.liveRate,
		"stream.live_events_per_s_no_rules": r.liveRateNoRules,

		"store.open_s":             r.tr.total("store.OpenStore"),
		"store.close_s":            r.tr.total("store.Close"),
		"store.wal_flushes":        ser["store.wal_flush_ns"].count,
		"store.wal_flush_bytes":    ser["store.wal_flush_bytes"].sum,
		"store.wal_flush_s":        ns("store.wal_flush_ns"),
		"store.segment_publish_s":  ns("store.segment_publish_ns"),
		"store.segments_published": value("store.segments_published"),
		"store.compaction_runs":    value("store.compaction_runs"),
		"store.segments":           float64(r.histSegs + r.liveSegs),
		"store.segments_hist":      float64(r.histSegs),
		"store.segments_live":      float64(r.liveSegs),
		"store.wal_bytes":          float64(r.walBytes),
		"store.segment_bytes":      float64(r.segBytes),
		"cache.pins":               value("cache.pins"),
		"cache.hits":               hits,
		"cache.misses":             misses,
		"cache.hits_plus_misses":   hits + misses,
		"cache.hit_rate":           hitRate,
		"cache.evictions":          value("cache.evictions"),
		"cache.bodies_opened":      value("cache.bodies_opened"),
		"cache.peak_mb":            value("cache.peak_bytes") / 1e6,
		"cache.decode_s":           r.probeS["cache.decode_s"],
		"cache.decoded_mb":         r.decodedMB,
		"core.segments_total":      float64(segsTotal),
		"core.segments_skipped":    float64(segsSkipped),

		"rules.premises_explored":          float64(st.PremisesExplored),
		"rules.consequents_explored":       float64(st.ConsequentNodesExplored),
		"rules.premises_pruned_redundant":  float64(st.PremisesPrunedRedundant),
		"rules.rules_suppressed_redundant": float64(st.RulesSuppressedRedundant),
		"rules.rules_emitted":              float64(st.RulesEmitted),
		"mine.seeds":                       value("mine.seeds"),
		"rules.search_s":                   r.probeS["rules.search_s"],

		"verify.traces_checked":            float64(v.TracesChecked),
		"verify.traces_skipped":            float64(v.TracesSkipped),
		"verify.rule_trace_gates":          float64(v.RuleTraceGates),
		"verify.consequent_short_circuits": float64(v.ConsequentShortCircuits),
		"verify.probes_issued":             float64(v.ProbesIssued),
		"verify.segments_checked":          float64(v.SegmentsChecked),
		"verify.segments_skipped":          float64(v.SegmentsSkipped),
		"verify.violations":                float64(r.violations),
		"verify.online_s":                  r.probeS["verify.online_s"],

		"plan.segments_pruned": float64(r.segsPruned),
		"plan.traces_selected": float64(r.qTrace),

		"go.gc_cycles":  float64(r.gcCycles),
		"go.gc_pause_s": float64(r.gcPauseNs) / 1e9,
	}
}

// perLayer reduces the traced repetitions to medians and marks which
// figures repeated exactly. The tracing overhead compares the traced and
// untraced pipeline times of the same run.
func perLayer(traced, plain []*rep) map[string]layerValue {
	per := make([]map[string]float64, len(traced))
	for i, r := range traced {
		per[i] = layerValues(r)
	}
	overhead := median(collect(traced, (*rep).pipelineS)) / median(collect(plain, (*rep).pipelineS))
	out := map[string]layerValue{"trace.overhead_ratio": {overhead, "-"}}
	for _, m := range layerMetrics {
		if m.name == "trace.overhead_ratio" {
			continue
		}
		xs := make([]float64, len(per))
		lo, hi := per[0][m.name], per[0][m.name]
		for i, p := range per {
			xs[i] = p[m.name]
			lo, hi = min(lo, xs[i]), max(hi, xs[i])
		}
		repeat := "exact"
		if lo != hi {
			repeat = fmt.Sprintf("varies %.6g..%.6g", lo, hi)
		}
		out[m.name] = layerValue{median(xs), repeat}
	}
	return out
}
