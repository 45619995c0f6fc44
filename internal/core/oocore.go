package core

import (
	"fmt"

	"specmine/internal/iterpattern"
	"specmine/internal/mine"
	"specmine/internal/obs"
	"specmine/internal/plan"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/store"
	"specmine/internal/store/cache"
	"specmine/internal/verify"
)

// Out-of-core mining and checking: MineStore, MineStoreRules and CheckStore
// run directly against a TraceStore's sealed segment catalog through the
// handle's pin-and-evict segment cache, instead of materialising the whole
// database with Recover. Per-segment statistics (event occurrence counts and
// a bloom filter, written into every segment at seal time) decide which
// segment bodies each seed or rule set actually needs; segments that provably
// cannot contribute are never decoded. Results are byte-identical to running the
// in-memory miners over Recover(dir) — same patterns, rules, reports and
// internal counters — for any cache budget and worker count.

// OutOfCoreOptions configures one out-of-core call. The segment cache the
// call runs on belongs to the store handle: it is built on the handle's
// first out-of-core call, shared by every later MineStore, MineStoreRules,
// CheckStore and CheckStoreWhere on it, and released by Close. Its cache.*
// series go to the registry the handle was opened with (StoreOptions.Obs).
type OutOfCoreOptions struct {
	// CacheBytes becomes the handle cache's byte budget when the call starts
	// (unpinned segments beyond it are evicted then); <= 0 means unlimited
	// (everything touched stays cached). The budget is a target: segments
	// pinned by in-flight work are never evicted, so a single seed's working
	// set may exceed it transiently. Results never depend on it.
	CacheBytes int64
	// Obs, when non-nil, folds the call's mining/verification counters
	// (mine.*, verify.*) into the registry when the call completes.
	Obs *obs.Registry
}

// OutOfCoreStats reports how much work segment statistics saved and how the
// cache behaved during one out-of-core run. Every count covers the run's own
// pins only, however warm the handle's cache was when it started.
type OutOfCoreStats struct {
	// SegmentsTotal is the catalog size; SegmentsSkipped counts segments the
	// run never pinned because their statistics proved them irrelevant to
	// every seed (mining) or every rule (checking).
	SegmentsTotal   int
	SegmentsSkipped int
	// BodiesOpened counts the run's segment body decodes, re-decodes after
	// eviction included; pins the handle's cache served count as hits.
	BodiesOpened int64
	// Cache counters of the run's pins; PeakCacheBytes is the cache's
	// resident high-water mark while the run accounted.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	PeakCacheBytes int64

	// Verify counts the verification work performed and avoided — per-trace
	// skips, per-rule gates, consequent short-circuits, probes. Populated by
	// the checking entry points only; mining leaves it zero.
	Verify verify.Metrics
}

func poolStats(p *cache.Pool) *OutOfCoreStats {
	m := p.Metrics()
	return &OutOfCoreStats{
		SegmentsTotal:   p.NumSegments(),
		SegmentsSkipped: p.NumSegments() - m.SegmentsOpened,
		BodiesOpened:    m.BodiesOpened,
		CacheHits:       m.Hits,
		CacheMisses:     m.Misses,
		CacheEvictions:  m.Evictions,
		PeakCacheBytes:  m.PeakBytes,
	}
}

// beginRun starts one out-of-core run on the handle's segment cache — the
// one place core builds that cache, on the handle's first out-of-core call —
// with oo.CacheBytes as its budget, and returns the catalog's statistics.
func beginRun(st *TraceStore, oo OutOfCoreOptions) (*cache.Pool, *cache.Totals, error) {
	hc, err := st.Cache(func() store.HandleCache { return cache.NewCache(st, st.Obs()) })
	if err != nil {
		return nil, nil, err
	}
	pool := hc.(*cache.Cache).Begin(oo.CacheBytes)
	tot, err := pool.Totals()
	if err != nil {
		return nil, nil, err
	}
	return pool, tot, nil
}

// segSource adapts the segment catalog + cache to the miners' mine.Source:
// global event frequencies come from summed segment statistics, and each
// seed's view is assembled by pinning exactly the segments whose statistics
// show the seed event, collecting the traces that contain it. Safe for
// concurrent AcquireSeed calls (the pool serialises internally).
type segSource struct {
	pool *cache.Pool
	tot  *cache.Totals
	dict *seqdb.Dictionary
}

func newSegSource(st *TraceStore, oo OutOfCoreOptions) (*segSource, error) {
	pool, tot, err := beginRun(st, oo)
	if err != nil {
		return nil, err
	}
	return &segSource{pool: pool, tot: tot, dict: st.Dict()}, nil
}

func (s *segSource) NumSequences() int                   { return s.tot.Traces }
func (s *segSource) NumEvents() int                      { return len(s.tot.Occ) }
func (s *segSource) InstanceCount(e seqdb.EventID) int64 { return s.tot.Occ[e] }

func (s *segSource) FrequentByInstanceCount(min int) []seqdb.EventID {
	return frequent(s.tot.Occ, min)
}

func (s *segSource) FrequentBySeqSupport(min int) []seqdb.EventID {
	return frequent(s.tot.Sup, min)
}

// frequent mirrors PositionIndex.FrequentEventsByInstanceCount /
// BySeqSupport: events meeting the threshold, ascending by id.
func frequent(counts []int64, min int) []seqdb.EventID {
	var out []seqdb.EventID
	for e := range counts {
		if counts[e] >= int64(min) {
			out = append(out, seqdb.EventID(e))
		}
	}
	return out
}

// AcquireSeed pins every segment whose statistics show the seed event (exact
// counts — no bloom false positives here) and assembles the seed's view:
// the traces containing the event, in ascending global order, with the
// local→global id table. The pins hold until Release, so the view's memory
// is accounted against the cache budget for its whole lifetime.
func (s *segSource) AcquireSeed(e seqdb.EventID) (*mine.SeedView, error) {
	var pins []*cache.Segment
	release := func() {
		for _, sg := range pins {
			sg.Unpin()
		}
	}
	db := seqdb.NewDatabaseWithDict(s.dict)
	var global []int32
	for i, ss := range s.tot.Stats {
		if occ, _ := ss.Count(e); occ == 0 {
			continue
		}
		sg, err := s.pool.Pin(i)
		if err != nil {
			release()
			return nil, err
		}
		pins = append(pins, sg)
		frag := sg.Fragment()
		for _, l := range frag.SeqsContaining(e) {
			db.Append(sg.Seqs[l])
			global = append(global, int32(sg.Base)+l)
		}
	}
	return &mine.SeedView{DB: db, Idx: db.FlatIndex(), Global: global, Release: release}, nil
}

// MineStore mines iterative patterns straight from the store's sealed
// segments — byte-identical to MinePatterns over Recover of the same store,
// without ever materialising the full database. PatternOptions carries the
// same knobs as MinePatterns.
func MineStore(st *TraceStore, opts PatternOptions, oo OutOfCoreOptions) (*PatternResult, *OutOfCoreStats, error) {
	src, err := newSegSource(st, oo)
	if err != nil {
		return nil, nil, err
	}
	iopts := iterpattern.Options{
		MinInstanceSupport: opts.MinSupport,
		MinSupportRel:      opts.MinSupportRel,
		MaxPatternLength:   opts.MaxLength,
		IncludeInstances:   opts.KeepInstances,
		Workers:            opts.Workers,
	}
	res, err := iterpattern.MineSource(src, iopts, !opts.Full)
	if err != nil {
		return nil, nil, fmt.Errorf("mining iterative patterns out-of-core: %w", err)
	}
	if oo.Obs != nil {
		publishPatternStats(oo.Obs, res.Stats)
	}
	return &PatternResult{
		Patterns:   res.Patterns,
		Closed:     !opts.Full,
		MinSupport: res.MinSupport,
		Stats:      res.Stats,
	}, poolStats(src.pool), nil
}

// publishPatternStats folds a pattern-mining run's search counters into the
// registry's cumulative mine.* series.
func publishPatternStats(r *obs.Registry, s iterpattern.Stats) {
	r.Counter("mine.seeds").Add(int64(s.Seeds))
	r.Counter("mine.nodes_explored").Add(int64(s.NodesExplored))
	r.Counter("mine.nodes_pruned_infrequent").Add(int64(s.NodesPrunedInfrequent))
	r.Counter("mine.patterns_emitted").Add(int64(s.PatternsEmitted))
	r.Histogram("mine.duration_ns").Observe(s.Duration.Nanoseconds())
}

// publishRuleStats is publishPatternStats for rule mining.
func publishRuleStats(r *obs.Registry, s rules.Stats) {
	r.Counter("mine.seeds").Add(int64(s.Seeds))
	r.Counter("mine.premises_explored").Add(int64(s.PremisesExplored))
	r.Counter("mine.consequents_explored").Add(int64(s.ConsequentNodesExplored))
	r.Counter("mine.rules_emitted").Add(int64(s.RulesEmitted))
	r.Histogram("mine.duration_ns").Observe(s.Duration.Nanoseconds())
}

// MineStoreRules mines recurrent rules straight from the store's sealed
// segments — byte-identical to MineRules over Recover of the same store.
func MineStoreRules(st *TraceStore, opts RuleOptions, oo OutOfCoreOptions) (*RuleResult, *OutOfCoreStats, error) {
	if opts.MinInstanceSupport == 0 {
		opts.MinInstanceSupport = 1
	}
	if opts.MinConfidence == 0 {
		opts.MinConfidence = 0.9
	}
	src, err := newSegSource(st, oo)
	if err != nil {
		return nil, nil, err
	}
	ropts := rules.Options{
		MinSeqSupport:       opts.MinSeqSupport,
		MinSeqSupportRel:    opts.MinSeqSupportRel,
		MinInstanceSupport:  opts.MinInstanceSupport,
		MinConfidence:       opts.MinConfidence,
		MaxPremiseLength:    opts.MaxPremiseLength,
		MaxConsequentLength: opts.MaxConsequentLength,
		Workers:             opts.Workers,
	}
	res, err := rules.MineSource(src, ropts, !opts.Full)
	if err != nil {
		return nil, nil, fmt.Errorf("mining recurrent rules out-of-core: %w", err)
	}
	if oo.Obs != nil {
		publishRuleStats(oo.Obs, res.Stats)
	}
	return &RuleResult{Rules: res.Rules, NonRedundant: !opts.Full, Stats: res.Stats}, poolStats(src.pool), nil
}

// CheckStore verifies a rule set against the store's sealed traces segment by
// segment — byte-identical to CheckRules over Recover of the same store. A
// segment in which every rule has at least one premise event that provably
// never occurs is answered from its statistics alone (each of its traces
// satisfies every rule with zero temporal points), without decoding the body.
// Decoded segments go through the statistics-driven planner: rules are gated
// per trace by presence probes in rarest-first order, consequent-dead rules
// are short-circuited, and traces every rule is gated on never touch position
// data. The per-query work counters land in OutOfCoreStats.Verify.
func CheckStore(st *TraceStore, ruleSet []Rule, oo OutOfCoreOptions) (verify.Summary, *OutOfCoreStats, error) {
	sum, stats, _, err := checkStorePlanned(st, ruleSet, nil, oo)
	return sum, stats, err
}

// CheckStoreWhere is CheckStore restricted to the traces selected by where,
// with the predicate pushed into the segment catalog: segments whose ordinal
// range misses the window/id list, or whose statistics prove a required event
// absent, are pruned without decoding. Violations carry global trace
// ordinals, so the summary is byte-identical to CheckWhere over Recover of
// the same store. The returned Explain includes segment-pruning counts.
func CheckStoreWhere(st *TraceStore, ruleSet []Rule, where Where, oo OutOfCoreOptions) (verify.Summary, *OutOfCoreStats, *Explain, error) {
	return checkStorePlanned(st, ruleSet, &where, oo)
}

func checkStorePlanned(st *TraceStore, ruleSet []Rule, where *Where, oo OutOfCoreOptions) (verify.Summary, *OutOfCoreStats, *Explain, error) {
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		return verify.Summary{}, nil, nil, err
	}
	pool, tot, err := beginRun(st, oo)
	if err != nil {
		return verify.Summary{}, nil, nil, err
	}
	numSegs := pool.NumSegments()

	pl := plan.New(engine, plan.SupportStats{Sup: tot.Sup, Traces: tot.Traces})
	reports := engine.NewReports()
	var run *plan.Run // bound to the first decoded segment's fragment
	var metrics verify.Metrics
	segsPruned := 0
	si := 0
	for i := 0; i < numSegs; i++ {
		ss := tot.Stats[i]
		n := pool.Meta(i).NumTraces()
		base := si
		si += n
		if where != nil && !segmentMaySelect(ss, *where, base, n) {
			segsPruned++
			continue // predicate selects nothing here: contributes no reports
		}
		mayContain := func(e seqdb.EventID) bool {
			occ, _ := ss.Count(e)
			return occ > 0
		}
		if engine.SegmentSkippable(mayContain) {
			// Every rule is statically dead: each selected trace satisfies
			// every rule with zero temporal points. With no event predicates
			// the selected count falls out of the catalog alone; an event
			// predicate needs the decoded traces to know which are selected.
			if where == nil || !where.HasEventPredicates() {
				count := n
				if where != nil {
					count = where.CountOrdinalMatches(base, n)
				}
				verify.AccountSkippedTraces(reports, count)
				metrics.SegmentsSkipped++
				metrics.TracesSkipped += int64(count)
				segsPruned++
				continue
			}
		}
		sg, err := pool.Pin(i)
		if err != nil {
			return verify.Summary{}, nil, nil, err
		}
		frag := sg.Fragment()
		if run == nil {
			run = pl.NewRun(frag)
		} else {
			run.Rebind(frag)
		}
		run.SetSegmentHints(mayContain)
		metrics.SegmentsChecked++
		for l := range sg.Seqs {
			g := base + l
			if where != nil && !where.MatchesSeq(frag, l, g) {
				continue
			}
			run.CheckTrace(l, g, reports)
		}
		sg.Unpin()
	}
	if run != nil {
		metrics.Merge(run.Metrics)
	} else {
		run = pl.NewRun(nil) // counters all zero; only Explain is read
	}
	ex := run.Explain()
	ex.Metrics = metrics
	ex.SegmentsTotal = numSegs
	ex.SegmentsPruned = segsPruned
	ooStats := poolStats(pool)
	ooStats.Verify = metrics
	metrics.Publish(oo.Obs)
	return verify.NewSummary(reports), ooStats, ex, nil
}

// segmentMaySelect reports whether where can select any trace of a segment
// occupying ordinals [base, base+n) with statistics ss — the catalog-level
// predicate pushdown: a window/id miss or a required event with zero count
// prunes the segment without decoding.
func segmentMaySelect(ss *store.SegmentStats, where Where, base, n int) bool {
	if !where.OrdinalOverlap(base, n) {
		return false
	}
	for _, e := range where.HasAll {
		if occ, _ := ss.Count(e); occ == 0 {
			return false
		}
	}
	if len(where.HasAny) > 0 {
		any := false
		for _, e := range where.HasAny {
			if occ, _ := ss.Count(e); occ > 0 {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}
