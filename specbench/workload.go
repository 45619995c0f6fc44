package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"specmine/internal/core"
	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// Pipeline policy shared by every workload. Sync stays off: durability
// covers process crashes only, the same on every workload.
const (
	producers   = 2  // closed-loop producer goroutines per ingest phase
	mineWorkers = 2  // RuleOptions.Workers for the out-of-core miner
	openTraces  = 16 // traces the replay keeps open at once
	rulesPerQry = 3  // mined rules drawn into each selective query

	// Each repetition runs queriesPerRep selective queries, taken in turn
	// from a pool of queryPool distinct ones, so that a run's latency
	// percentiles cover many queries rather than a few repeated.
	queriesPerRep = 12
	queryPool     = 10 * queriesPerRep
)

// workload is one input mix. Each exists to load one part of the pipeline
// while the others do little; Why says which.
type workload struct {
	Name      string
	Why       string
	Component string // tracesim component generating both trace sets
	Hist      int    // history traces: ingested, then mined
	Live      int    // live traces: ingested, then checked
	// HistSeed, when non-zero, fixes the history whatever --seed says.
	HistSeed int64
	// LiveViolationRate, when >= 0, replaces the component's own rate for
	// the live traces.
	LiveViolationRate float64
	Rules             core.RuleOptions // mining thresholds (Workers is set separately)
	// CacheShare sets the segment-cache budget as a share of the history's
	// decoded size; 0 means unlimited.
	CacheShare float64
	// Online attaches the mined rules to the live ingest for online checking.
	Online bool
}

var (
	strict  = core.RuleOptions{MinSeqSupportRel: 0.9, MinInstanceSupport: 1, MinConfidence: 0.9, MaxPremiseLength: 3, MaxConsequentLength: 3}
	relaxed = core.RuleOptions{MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 0.8, MaxPremiseLength: 2, MaxConsequentLength: 2}
)

var workloads = []workload{
	{
		Name:      "ingest-locking",
		Why:       "prices the stream, WAL, segment-publish and compaction path; mining, cache and planner do little",
		Component: "locking", Hist: 8000, Live: 30000, LiveViolationRate: -1,
		Rules: strict, CacheShare: 0,
	},
	{
		Name:      "mine-security-oocore",
		Why:       "history store four times the segment cache, so out-of-core mining dominates; ingest and checking are small",
		Component: "security", Hist: 10000, Live: 1000, LiveViolationRate: -1,
		Rules: relaxed, CacheShare: 0.25,
	},
	{
		Name: "check-transaction",
		Why:  "thousands of mined rules checked online during live ingest and batched through the planner",
		// The mined rule count swings from 9k to 17k between transaction
		// histories of this size, so the history is fixed (the training seed
		// of the repository's verify benchmarks) and only the live traffic
		// follows --seed: seed noise stays out of check_s.
		Component: "transaction", Hist: 30, HistSeed: 7, Live: 800, LiveViolationRate: 0.25,
		Rules: relaxed, CacheShare: 0, Online: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the workload's trace counts by scale (the smoke test runs
// tiny sizes); trace sets keep at least 8 traces.
func (w workload) scaled(scale float64) workload {
	sz := func(n int) int { return max(8, int(float64(n)*scale)) }
	w.Hist, w.Live = sz(w.Hist), sz(w.Live)
	return w
}

// counts are one rule's conformance figures. Violating ordinals are left
// out: the seal order, and so the ordinals, depend on producer timing.
type counts struct {
	Sat, Viol, Points, SatPoints, Violations int
}

// query is one selective CheckStoreWhere: a few mined rules, restricted to
// the traces holding one event.
type query struct {
	Rules []string // rule keys, resolved against the mined rule set
	Event string
	Ref   map[string]counts
}

// inputs are one set-up's generated traces and reference answers.
// Reference answers live in the "reference space": the history's
// generated dictionary, extended by the live traces' events.
type inputs struct {
	HistChunks, LiveChunks [producers][]tracesim.StreamChunk
	Hist, Live             *seqdb.Database // reference space
	HistEvents, LiveEvents int

	RefRules  []core.Rule
	RefMined  map[string]bool // keys of the in-memory mined rules
	RefCheck  map[string]counts
	Queries   []query
	Budget    int64 // segment-cache budget in bytes; 0: unlimited
	DecodedMB float64

	// HistSet and LiveSet are the sent traces as multisets (traceMultiset);
	// Print fingerprints both.
	HistSet, LiveSet []uint64
	Print            uint64
}

// ruleKey names a rule by its events and statistics, independently of the
// dictionary ids it is expressed in.
func ruleKey(dict *seqdb.Dictionary, r core.Rule) string {
	return fmt.Sprintf("%s -> %s s=%d i=%d c=%.17g", r.Pre.String(dict), r.Post.String(dict),
		r.SeqSupport, r.InstanceSupport, r.Confidence)
}

// summaryCounts keys a summary's per-rule counts by rule.
func summaryCounts(dict *seqdb.Dictionary, reports []verify.RuleReport) map[string]counts {
	out := make(map[string]counts, len(reports))
	for _, r := range reports {
		out[ruleKey(dict, r.Rule)] = counts{r.SatisfiedTraces, r.ViolatedTraces,
			r.TotalTemporalPoints, r.SatisfiedTemporalPoints, len(r.Violations)}
	}
	return out
}

// chunks replays n generated traces as an interleaved chunk stream and deals
// the chunks to the producers by trace, so each trace has one producer.
func chunks(w tracesim.Workload, n int, seed int64) ([producers][]tracesim.StreamChunk, error) {
	var out [producers][]tracesim.StreamChunk
	trace := 0
	owner := map[string]int{}
	err := w.Stream(n, seed, openTraces, func(c tracesim.StreamChunk) error {
		p, ok := owner[c.TraceID]
		if !ok {
			p = trace % producers
			owner[c.TraceID] = p
			trace++
		}
		out[p] = append(out[p], c)
		if c.Final {
			delete(owner, c.TraceID)
		}
		return nil
	})
	return out, err
}

// setup generates a repetition's inputs from seed and computes every
// reference answer with the in-memory facade.
func setup(w workload, seed int64) (*inputs, error) {
	comp, ok := tracesim.Workloads()[w.Component]
	if !ok {
		return nil, fmt.Errorf("unknown tracesim component %q", w.Component)
	}
	histSeed, liveSeed := 2*seed+1, 2*seed+2
	if w.HistSeed != 0 {
		histSeed = w.HistSeed
	}
	liveComp := comp
	if w.LiveViolationRate >= 0 {
		liveComp.ViolationRate = w.LiveViolationRate
	}
	in := &inputs{}
	var err error
	if in.HistChunks, err = chunks(comp, w.Hist, histSeed); err != nil {
		return nil, err
	}
	if in.LiveChunks, err = chunks(liveComp, w.Live, liveSeed); err != nil {
		return nil, err
	}
	if in.Hist, err = comp.Generate(w.Hist, histSeed); err != nil {
		return nil, err
	}
	live, err := liveComp.Generate(w.Live, liveSeed)
	if err != nil {
		return nil, err
	}
	in.Live = seqdb.NewDatabaseWithDict(in.Hist.Dict.Clone())
	for _, s := range live.Sequences {
		names := make([]string, len(s))
		for i, e := range s {
			names[i] = live.Dict.Name(e)
		}
		in.Live.AppendNames(names...)
	}
	in.HistEvents, in.LiveEvents = in.Hist.NumEvents(), in.Live.NumEvents()
	in.HistSet, in.LiveSet = traceMultiset(in.Hist), traceMultiset(in.Live)
	in.Print = fingerprint(in.HistSet, in.LiveSet)

	// The budget follows the segment cache's cost model for a fully
	// resident history: 24 B per trace and 4 B per event decoded, plus a
	// position-index fragment of 8 B per event and 8 B per event id.
	decoded := 24*int64(w.Hist) + 12*int64(in.HistEvents) + 8*int64(in.Hist.Dict.Size())
	in.DecodedMB = float64(decoded) / 1e6
	if w.CacheShare > 0 {
		in.Budget = int64(w.CacheShare * float64(decoded))
	}

	opts := w.Rules
	opts.Workers = mineWorkers
	mined, err := core.MineRules(in.Hist, opts)
	if err != nil {
		return nil, fmt.Errorf("reference MineRules: %w", err)
	}
	in.RefRules = mined.Rules
	in.RefMined = make(map[string]bool, len(mined.Rules))
	for _, r := range mined.Rules {
		in.RefMined[ruleKey(in.Hist.Dict, r)] = true
	}
	sum, err := core.CheckRules(in.Live, in.RefRules)
	if err != nil {
		return nil, fmt.Errorf("reference CheckRules: %w", err)
	}
	in.RefCheck = summaryCounts(in.Live.Dict, sum.Reports)
	if in.Queries, err = drawQueries(w, in, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// drawQueries draws the selective query mix: each query takes a few mined
// rules and one live event. A third of the events come from the rarer half
// of the live events by trace support, the rest from the commoner half.
func drawQueries(w workload, in *inputs, seed int64) ([]query, error) {
	rng := rand.New(rand.NewSource(seed*7 + 3))
	keys := make([]string, 0, len(in.RefMined))
	byKey := map[string]core.Rule{}
	for _, r := range in.RefRules {
		k := ruleKey(in.Live.Dict, r)
		keys = append(keys, k)
		byKey[k] = r
	}
	sort.Strings(keys)
	sup := in.Live.EventSupport()
	events := make([]seqdb.EventID, 0, len(sup))
	for e := range sup {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool {
		if sup[events[i]] != sup[events[j]] {
			return sup[events[i]] < sup[events[j]]
		}
		return events[i] < events[j]
	})
	if len(keys) == 0 || len(events) == 0 {
		return nil, fmt.Errorf("workload %s mines %d rules over %d live events; queries need both", w.Name, len(keys), len(events))
	}
	half := (len(events) + 1) / 2
	qs := make([]query, queryPool)
	for i := range qs {
		q := &qs[i]
		var e seqdb.EventID
		if i%3 == 0 {
			e = events[rng.Intn(half)]
		} else {
			e = events[len(events)-half+rng.Intn(half)]
		}
		q.Event = in.Live.Dict.Name(e)
		var rs []core.Rule
		for _, j := range rng.Perm(len(keys))[:min(rulesPerQry, len(keys))] {
			q.Rules = append(q.Rules, keys[j])
			rs = append(rs, byKey[keys[j]])
		}
		sum, _, err := core.CheckWhere(in.Live, rs, core.Where{HasAny: []seqdb.EventID{e}})
		if err != nil {
			return nil, fmt.Errorf("reference CheckWhere: %w", err)
		}
		q.Ref = summaryCounts(in.Live.Dict, sum.Reports)
	}
	return qs, nil
}

// traceMultiset hashes every trace by its event names and returns the
// sorted hashes: equal multisets of traces give equal slices whatever order
// the traces were sealed in.
func traceMultiset(db *seqdb.Database) []uint64 {
	out := make([]uint64, len(db.Sequences))
	for i, s := range db.Sequences {
		h := fnv.New64a()
		for _, e := range s {
			h.Write([]byte(db.Dict.Name(e)))
			h.Write([]byte{0})
		}
		out[i] = h.Sum64()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fingerprint identifies the generated traces, so a different seed can be
// shown to change them.
func fingerprint(sets ...[]uint64) uint64 {
	h := fnv.New64a()
	for _, set := range sets {
		for _, x := range set {
			fmt.Fprintf(h, "%x,", x)
		}
		h.Write([]byte("|"))
	}
	return h.Sum64()
}
