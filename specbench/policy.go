package main

import (
	"encoding/json"
	"fmt"
)

// roadmapItem ties a ROADMAP item to the metrics, on one workload, that a
// change made for it is expected to move.
type roadmapItem struct {
	Item     string   `json:"item"`
	Metrics  []string `json:"metrics"`
	Workload string   `json:"workload"`
}

var roadmap = []roadmapItem{
	{"durable-ingest gap", []string{"ingest_events_per_s"}, "ingest-locking"},
	{"out-of-core gap and miner consolidation", []string{"mine_s"}, "mine-security-oocore"},
	{"evaluator consolidation, vectorized verify, greedy-vs-stats planning", []string{"check_s", "where_p50_ms", "where_p90_ms"}, "check-transaction"},
	{"evaluator consolidation (online path)", []string{"ingest_events_per_s"}, "check-transaction"},
}

// policyJSON renders the benchmark's policy: every workload's sizes, seeds,
// thresholds and cache budget, the load shape, and the ROADMAP items each
// workload serves. policy.json holds its output; a test keeps them equal.
func policyJSON() ([]byte, error) {
	type thresholds struct {
		MinSeqSupportRel float64 `json:"min_seq_support_rel"`
		MinConfidence    float64 `json:"min_confidence"`
		MaxPremise       int     `json:"max_premise_length"`
		MaxConsequent    int     `json:"max_consequent_length"`
	}
	type wl struct {
		Name          string     `json:"name"`
		Why           string     `json:"why"`
		Component     string     `json:"component"`
		HistTraces    int        `json:"history_traces"`
		HistSeed      string     `json:"history_seed"`
		LiveTraces    int        `json:"live_traces"`
		LiveSeed      string     `json:"live_seed"`
		LiveViolation any        `json:"live_violation_rate"`
		Thresholds    thresholds `json:"thresholds"`
		CacheBudget   string     `json:"cache_budget"`
		OnlineRules   bool       `json:"online_rules"`
		Queries       int        `json:"where_queries_per_repetition"`
		QueryPool     int        `json:"where_distinct_queries"`
		RulesPerQuery int        `json:"rules_per_query"`
		Producers     int        `json:"producers"`
		MineWorkers   int        `json:"mine_workers"`
		Sync          string     `json:"sync"`
		Roadmap       []string   `json:"roadmap_items"`
	}
	out := struct {
		Claim       any           `json:"claim"`
		Load        string        `json:"load"`
		Environment string        `json:"environment"`
		Repetitions string        `json:"repetitions"`
		Workloads   []wl          `json:"workloads"`
		Roadmap     []roadmapItem `json:"roadmap"`
	}{
		Claim: nil,
		Load: "closed loop from one process: 2 producer goroutines (nproc = 2) each send their next " +
			"Ingest or CloseTrace once the previous one is acked; 16 traces open at once",
		Environment: "each run prints runtime.NumCPU() as nproc and runtime.GOMAXPROCS(0) in its first line; " +
			"the bounds were set with nproc = 2 and GOMAXPROCS = 2",
		Repetitions: "a run repeats the six timed phases until --seconds would be exceeded, at least 3 times " +
			"and until 100 selective queries ran, and reports medians; the first 3 repetitions each set up afresh " +
			"(setup_s is their median), later ones reuse the inputs; query latencies pool every repetition's queries; " +
			"open_s is the 10th percentile of every repetition's first out-of-core opens of both stores: the pipeline's, " +
			"and up to 8 more per repetition, within a quarter of its pipeline time, of stores ingested again from the same inputs without online rules; " +
			"check_s is the median of every repetition's full CheckStore and up to 8 more runs of it after the phases, while one more fits in a quarter of its pipeline time",
	}
	for _, w := range workloads {
		x := wl{
			Name: w.Name, Why: w.Why, Component: w.Component,
			HistTraces: w.Hist, HistSeed: "2*seed+1", LiveTraces: w.Live, LiveSeed: "2*seed+2",
			LiveViolation: "component default",
			Thresholds: thresholds{w.Rules.MinSeqSupportRel, w.Rules.MinConfidence,
				w.Rules.MaxPremiseLength, w.Rules.MaxConsequentLength},
			CacheBudget: "unlimited", OnlineRules: w.Online, Queries: queriesPerRep, QueryPool: queryPool, RulesPerQuery: rulesPerQry,
			Producers: producers, MineWorkers: mineWorkers,
			Sync: "off: durability covers process crashes only",
		}
		if w.HistSeed != 0 {
			x.HistSeed = fmt.Sprintf("fixed %d", w.HistSeed)
		}
		if w.LiveViolationRate >= 0 {
			x.LiveViolation = w.LiveViolationRate
		}
		if w.CacheShare > 0 {
			x.CacheBudget = fmt.Sprintf("%g of the history's decoded size under the segment cache's cost model", w.CacheShare)
		}
		for _, it := range roadmap {
			if it.Workload == w.Name {
				x.Roadmap = append(x.Roadmap, it.Item)
			}
		}
		out.Workloads = append(out.Workloads, x)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	return append(b, '\n'), err
}
