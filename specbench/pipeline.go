package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"specmine/internal/core"
	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/store/cache"
	"specmine/internal/tracesim"
	"specmine/internal/verify"
)

// phases are the six timed phases, in pipeline order.
var phases = []string{"ingest.hist", "open.hist", "mine", "ingest.live", "open.live", "check"}

// rep is one pass of the pipeline over one repetition's inputs. With reg
// and tr set it is a traced pass: the registry is handed to every layer
// through the facade's Obs options, and spans wrap every facade call.
type rep struct {
	w       workload
	in      *inputs
	queries []query // this repetition's share of the query pool
	dir     string
	reg     *core.MetricsRegistry
	tr      *tracer
	// inject corrupts one reference answer, to show a mismatch is caught.
	inject bool

	phaseS       map[string]float64
	ingestS      float64   // first Ingest until TraceStore.Close returns, both phases
	ingestEvents int64     // events acked in both ingest phases
	openS        float64   // both out-of-core opens inside the pipeline
	openSamples  []float64 // openS, then resampled first opens of both stores (untraced passes)
	mineS        float64
	checkS       float64
	checkSamples []float64 // checkS, then repeated full checks (untraced passes)
	queryMs      []float64
	allocBytes   uint64
	gcCycles     uint32
	gcPauseNs    uint64

	liveRate        float64 // live phase's events per second
	liveRateNoRules float64 // the same without online rules (traced passes)

	storeBytes, walBytes, segBytes int64
	histSegs, liveSegs             int // catalog sizes after the out-of-core opens
	mineOO, checkOO                *core.OutOfCoreStats
	ruleStats                      rules.Stats
	violations                     int // of the full CheckStore

	attempted, failed int64
	mismatches        []string

	// Traced passes only.
	segsPruned, qTrace int64 // summed over the queries' Explain
	probeS             map[string]float64
	decodedMB          float64
}

func newRep(w workload, in *inputs, queries []query, dir string, traced bool, run string) *rep {
	r := &rep{w: w, in: in, queries: queries, dir: dir, phaseS: map[string]float64{}, probeS: map[string]float64{}}
	if traced {
		r.reg = core.NewMetrics()
		r.tr = newTracer(run)
	}
	return r
}

// op counts one facade operation and its failure.
func (r *rep) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// call runs one facade call inside a span and counts it.
func (r *rep) call(name string, fn func() error) error {
	return r.op(r.tr.timed(name, fn))
}

// compare counts one reference comparison.
func (r *rep) compare(what string, ok bool, detail string) {
	r.attempted++
	if !ok {
		r.failed++
		r.mismatches = append(r.mismatches, what+": "+detail)
	}
}

// phase times fn as one of the six phases, together with the runtime's
// allocation and GC counters over it. fn returns the time inside it that
// does not belong to the phase (reading online results).
func (r *rep) phase(name string, fn func() (time.Duration, error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.tr.begin(name)
	t0 := time.Now()
	excluded, err := fn()
	d := time.Since(t0) - excluded
	r.tr.end()
	runtime.ReadMemStats(&m1)
	r.phaseS[name] = d.Seconds()
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles += m1.NumGC - m0.NumGC
	r.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (r *rep) pipelineS() float64 {
	s := 0.0
	for _, p := range phases {
		s += r.phaseS[p]
	}
	return s
}

// run executes the six phases, then checks every output against the
// reference answers. A facade error ends the pass.
func (r *rep) run() error {
	histDir, liveDir := filepath.Join(r.dir, "hist"), filepath.Join(r.dir, "live")
	oo := core.OutOfCoreOptions{CacheBytes: r.in.Budget, Obs: r.reg}

	if err := r.phase("ingest.hist", func() (time.Duration, error) {
		ig, err := r.ingest(histDir, r.in.HistChunks, nil, nil)
		r.account(ig)
		return ig.excluded, err
	}); err != nil {
		return err
	}

	var hs, ls *core.TraceStore
	defer func() {
		for _, st := range []*core.TraceStore{hs, ls} {
			if st != nil {
				st.Close()
			}
		}
	}()
	openOOC := func(dir string, st **core.TraceStore) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			t0 := time.Now()
			err := r.call("store.OpenStore.oocore", func() (err error) {
				*st, err = core.OpenStore(dir, core.StoreOptions{OutOfCore: true, Obs: r.reg})
				return err
			})
			r.openS += time.Since(t0).Seconds()
			return 0, err
		}
	}
	if err := r.phase("open.hist", openOOC(histDir, &hs)); err != nil {
		return err
	}

	opts := r.w.Rules
	opts.Workers = mineWorkers
	var mined *core.RuleResult
	if err := r.phase("mine", func() (time.Duration, error) {
		t0 := time.Now()
		err := r.call("core.MineStoreRules", func() (err error) {
			mined, r.mineOO, err = core.MineStoreRules(hs, opts, oo)
			return err
		})
		r.mineS = time.Since(t0).Seconds()
		return 0, err
	}); err != nil {
		return err
	}
	r.ruleStats = mined.Stats
	byKey := make(map[string]core.Rule, len(mined.Rules))
	for _, rl := range mined.Rules {
		byKey[ruleKey(hs.Dict(), rl)] = rl
	}
	r.compareMined(byKey)

	var online []core.Rule
	if r.w.Online {
		online = mined.Rules
	}
	if err := r.phase("ingest.live", func() (time.Duration, error) {
		ig, err := r.ingest(liveDir, r.in.LiveChunks, hs.Dict(), online)
		r.account(ig)
		r.liveRate = float64(ig.acked) / ig.window.Seconds()
		return ig.excluded, err
	}); err != nil {
		return err
	}
	if err := r.phase("open.live", openOOC(liveDir, &ls)); err != nil {
		return err
	}

	// Resolve the query mix against the mined rules and the live store's
	// dictionary; a query whose rules were not mined counts as failed.
	type resolved struct {
		rules []core.Rule
		where core.Where
		ok    bool
	}
	qs := make([]resolved, len(r.queries))
	for i, q := range r.queries {
		qs[i].ok = true
		for _, k := range q.Rules {
			rl, ok := byKey[k]
			qs[i].ok = qs[i].ok && ok
			qs[i].rules = append(qs[i].rules, rl)
		}
		e := ls.Dict().Lookup(q.Event)
		qs[i].ok = qs[i].ok && e != seqdb.NoEvent
		qs[i].where = core.Where{HasAny: []seqdb.EventID{e}}
	}

	// The queries run before the full check, so that they do not share the
	// heap with its summary, which holds a record per violation.
	var full verify.Summary
	sums := make([]verify.Summary, len(qs))
	if err := r.phase("check", func() (time.Duration, error) {
		for i, q := range qs {
			if !q.ok {
				continue
			}
			t0 := time.Now()
			var ex *core.Explain
			err := r.call("core.CheckStoreWhere", func() (err error) {
				sums[i], _, ex, err = core.CheckStoreWhere(ls, q.rules, q.where, oo)
				return err
			})
			r.queryMs = append(r.queryMs, float64(time.Since(t0).Nanoseconds())/1e6)
			if err != nil {
				return 0, err
			}
			r.segsPruned += int64(ex.SegmentsPruned)
			r.qTrace += ex.Metrics.TracesChecked + ex.Metrics.TracesSkipped
		}
		t0 := time.Now()
		err := r.call("core.CheckStore", func() (err error) {
			full, r.checkOO, err = core.CheckStore(ls, mined.Rules, oo)
			return err
		})
		r.checkS = time.Since(t0).Seconds()
		return 0, err
	}); err != nil {
		return err
	}

	want := r.in.RefCheck
	if r.inject {
		want = corrupt(want)
	}
	r.compareCounts("CheckStore", summaryCounts(ls.Dict(), full.Reports), want)
	r.violations = full.TotalViolations()
	full = verify.Summary{}
	for i, q := range r.queries {
		if !qs[i].ok {
			r.compare(fmt.Sprintf("query %d", i), false, "rules or event missing from the mined set or the live store")
			continue
		}
		r.compareCounts(fmt.Sprintf("CheckStoreWhere %d", i), summaryCounts(ls.Dict(), sums[i].Reports), q.Ref)
	}

	r.histSegs, r.liveSegs = len(hs.Segments()), len(ls.Segments())
	if r.tr != nil {
		if err := r.probeDecode(hs); err != nil {
			return err
		}
		r.probeOnline()
		// Isolation probe: the live ingest again without online rules, so
		// that the two rates price online checking inside the stream.
		r.liveRateNoRules = r.liveRate
		if len(online) > 0 {
			r.tr.begin("probe.ingest.live.no_rules")
			reg := r.reg
			r.reg = nil // keep the probe out of the layer counters
			ig, err := r.ingest(filepath.Join(r.dir, "live-no-rules"), r.in.LiveChunks, hs.Dict(), nil)
			r.reg = reg
			r.tr.end()
			if err != nil {
				return err
			}
			r.liveRateNoRules = float64(ig.acked) / ig.window.Seconds()
		}
	}
	r.openSamples = append(r.openSamples, r.openS)
	r.checkSamples = append(r.checkSamples, r.checkS)
	if r.tr == nil {
		if err := r.resampleChecks(ls, mined.Rules, oo); err != nil {
			return err
		}
		if err := r.resampleOpens(hs.Dict()); err != nil {
			return err
		}
	}
	for _, st := range []**core.TraceStore{&hs, &ls} {
		err := r.op((*st).Close())
		*st = nil
		if err != nil {
			return err
		}
	}
	if err := r.measureDisk(histDir, liveDir); err != nil {
		return err
	}
	return r.checkAcks(histDir, liveDir, opts)
}

// ingested is one ingest phase's outcome.
type ingested struct {
	window   time.Duration // first Ingest until TraceStore.Close returns
	excluded time.Duration // reading online results, inside window but not part of it
	acked    int64
}

func (r *rep) account(ig ingested) {
	r.ingestS += ig.window.Seconds()
	r.ingestEvents += ig.acked
}

// ingest streams chunks from the producers through a durable Streamer into
// a new store at dir. With rules set they are checked online, and the
// online summary is compared with the reference outside the timed window.
func (r *rep) ingest(dir string, chunks [producers][]tracesim.StreamChunk, dict *core.Dictionary, rules []core.Rule) (ingested, error) {
	var ig ingested
	var st *core.TraceStore
	if err := r.call("store.OpenStore", func() (err error) {
		st, err = core.OpenStore(dir, core.StoreOptions{Obs: r.reg})
		return err
	}); err != nil {
		return ig, err
	}
	var sm *core.Streamer
	if err := r.call("stream.NewStreamer", func() (err error) {
		sm, err = core.NewStreamer(core.StreamOptions{Store: st, Dict: dict, Rules: rules, Obs: r.reg})
		return err
	}); err != nil {
		st.Close()
		return ig, err
	}
	t0 := time.Now()
	r.tr.begin("stream.Ingest")
	acked, ops, err := produce(sm, chunks)
	r.tr.end()
	r.attempted += ops
	if err != nil {
		r.failed++
	}
	if err == nil && len(rules) > 0 {
		t := time.Now()
		r.tr.beginOutside("stream.CheckOnline")
		var sum verify.Summary
		sum, err = sm.CheckOnline()
		if r.op(err) == nil {
			r.compareCounts("CheckOnline", summaryCounts(sm.Dict(), sum.Reports), r.in.RefCheck)
		}
		// Collect the readout's garbage here, so that it is not charged
		// to the phases that follow.
		sum = verify.Summary{}
		runtime.GC()
		r.tr.end()
		ig.excluded = time.Since(t)
	}
	cerr := r.call("stream.Close", sm.Close)
	serr := r.call("store.Close", st.Close)
	ig.window = time.Since(t0) - ig.excluded
	ig.acked = acked
	return ig, errors.Join(err, cerr, serr)
}

// produce replays each producer's chunks from its own goroutine, closed
// loop: a producer sends its next operation once the previous one is acked.
func produce(sm *core.Streamer, chunks [producers][]tracesim.StreamChunk) (acked, ops int64, err error) {
	var wg sync.WaitGroup
	var ackedBy, opsBy [producers]int64
	var errs [producers]error
	for p := range chunks {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for _, c := range chunks[p] {
				if len(c.Events) > 0 {
					opsBy[p]++
					if errs[p] = sm.Ingest(c.TraceID, c.Events...); errs[p] != nil {
						return
					}
					ackedBy[p] += int64(len(c.Events))
				}
				if c.Final {
					opsBy[p]++
					if errs[p] = sm.CloseTrace(c.TraceID); errs[p] != nil {
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for p := range chunks {
		acked += ackedBy[p]
		ops += opsBy[p]
		if err == nil {
			err = errs[p]
		}
	}
	return acked, ops, err
}

// compareMined checks the out-of-core rules against in-memory MineRules
// over the generated history.
func (r *rep) compareMined(got map[string]core.Rule) {
	missing, extra := 0, 0
	for k := range r.in.RefMined {
		if _, ok := got[k]; !ok {
			missing++
		}
	}
	for k := range got {
		if !r.in.RefMined[k] {
			extra++
		}
	}
	r.compare("MineStoreRules", missing == 0 && extra == 0,
		fmt.Sprintf("%d rules missing, %d extra against in-memory MineRules (%d rules)", missing, extra, len(r.in.RefMined)))
}

func (r *rep) compareCounts(what string, got, want map[string]counts) {
	bad := 0
	for k, w := range want {
		if got[k] != w {
			bad++
		}
	}
	r.compare(what, bad == 0 && len(got) == len(want),
		fmt.Sprintf("%d of %d rules differ from the reference (%d reported)", bad, len(want), len(got)))
}

// corrupt returns a copy of want with one rule's count changed.
func corrupt(want map[string]counts) map[string]counts {
	out := make(map[string]counts, len(want))
	first := ""
	for k, c := range want {
		out[k] = c
		if first == "" || k < first {
			first = k
		}
	}
	c := out[first]
	c.Sat++
	out[first] = c
	return out
}

// checkAcks recovers both stores and checks the ack contract: the traces
// and events recovered equal those sent.
func (r *rep) checkAcks(histDir, liveDir string, opts core.RuleOptions) error {
	sent := int64(r.in.HistEvents + r.in.LiveEvents)
	r.compare("acked events", r.ingestEvents == sent, fmt.Sprintf("%d acked, %d sent", r.ingestEvents, sent))
	for _, s := range []struct {
		name string
		dir  string
		want []uint64
	}{{"history store", histDir, r.in.HistSet}, {"live store", liveDir, r.in.LiveSet}} {
		var db *core.Database
		if err := r.call("store.Recover", func() (err error) {
			db, err = core.Recover(s.dir)
			return err
		}); err != nil {
			return err
		}
		got := traceMultiset(db)
		r.compare(s.name, slices.Equal(got, s.want),
			fmt.Sprintf("recovered %d traces / %d events, sent %d traces", len(db.Sequences), db.NumEvents(), len(s.want)))
		if r.tr != nil && s.dir == histDir {
			// Isolation probe: the in-memory miner over the same history,
			// so that mine_s minus this prices the out-of-core path alone.
			r.tr.begin("probe.rules.search")
			t0 := time.Now()
			_, err := core.MineRules(db, opts)
			r.probeS["rules.search_s"] = time.Since(t0).Seconds()
			r.tr.end()
			if r.op(err) != nil {
				return err
			}
		}
	}
	return nil
}

// probeDecode times a cold segment cache decoding every history segment.
func (r *rep) probeDecode(hs *core.TraceStore) error {
	r.tr.begin("probe.cache.decode")
	defer r.tr.end()
	t0 := time.Now()
	pool := cache.New(hs, cache.Options{})
	segs := make([]*cache.Segment, 0, pool.NumSegments())
	for i := 0; i < pool.NumSegments(); i++ {
		sg, err := pool.Pin(i)
		if r.op(err) != nil {
			return err
		}
		segs = append(segs, sg)
	}
	r.probeS["cache.decode_s"] = time.Since(t0).Seconds()
	r.decodedMB = float64(pool.Metrics().PeakBytes) / 1e6
	for _, sg := range segs {
		sg.Unpin()
	}
	return nil
}

// probeOnline times the online automaton alone over the live traces:
// NewChecker, Advance per event and Close per trace, outside the stream.
func (r *rep) probeOnline() {
	r.tr.begin("probe.verify.online")
	defer r.tr.end()
	t0 := time.Now()
	eng, err := core.CompileRules(r.in.RefRules)
	if r.op(err) != nil {
		return
	}
	reports := eng.NewReports()
	c := eng.NewChecker()
	for i, s := range r.in.Live.Sequences {
		for _, e := range s {
			c.Advance(e)
		}
		c.Close(i, reports)
	}
	r.probeS["verify.online_s"] = time.Since(t0).Seconds()
}

// After the phases an untraced pass samples the full check and the first
// opens again, at most maxResamples times each, within resampleShare of its
// pipeline time each: on some workloads they take milliseconds, too short
// for one sample per repetition.
const (
	maxResamples  = 8
	resampleShare = 0.25
)

// resampleChecks runs the full CheckStore again, while one more run fits
// in resampleShare of the pipeline time, at most maxResamples times; each
// run is one more sample of checkS.
func (r *rep) resampleChecks(ls *core.TraceStore, rules []core.Rule, oo core.OutOfCoreOptions) error {
	budget := resampleShare * r.pipelineS()
	spent := 0.0
	for k := 0; k < maxResamples && spent+r.checkS < budget; k++ {
		t0 := time.Now()
		sum, _, err := core.CheckStore(ls, rules, oo)
		d := time.Since(t0).Seconds()
		if r.op(err) != nil {
			return err
		}
		spent += d
		r.checkSamples = append(r.checkSamples, d)
		r.compareCounts("CheckStore (resample)", summaryCounts(ls.Dict(), sum.Reports), r.in.RefCheck)
	}
	return nil
}

// resampleOpens ingests the repetition's inputs again into fresh stores,
// without online rules, and times the first out-of-core open of each; each
// pair is one more sample of openS. Only a first open after ingest
// canonicalises the WAL tail into a segment, so a reopen of the same store
// is no sample of it.
func (r *rep) resampleOpens(dict *core.Dictionary) error {
	budget := resampleShare * r.pipelineS()
	t0 := time.Now()
	for k := 0; k < maxResamples && time.Since(t0).Seconds() < budget; k++ {
		d := time.Duration(0)
		for i, s := range []struct {
			chunks [producers][]tracesim.StreamChunk
			dict   *core.Dictionary
			events int
		}{{r.in.HistChunks, nil, r.in.HistEvents}, {r.in.LiveChunks, dict, r.in.LiveEvents}} {
			dir := filepath.Join(r.dir, fmt.Sprintf("resample-%d-%d", k, i))
			ig, err := r.ingest(dir, s.chunks, s.dict, nil)
			if err != nil {
				return err
			}
			r.compare("acked events (resample)", ig.acked == int64(s.events), fmt.Sprintf("%d acked, %d sent", ig.acked, s.events))
			var st *core.TraceStore
			t := time.Now()
			err = r.op(func() (err error) {
				st, err = core.OpenStore(dir, core.StoreOptions{OutOfCore: true})
				return err
			}())
			d += time.Since(t)
			if err == nil {
				err = r.op(st.Close())
			}
			if err := errors.Join(err, os.RemoveAll(dir)); err != nil {
				return err
			}
		}
		r.openSamples = append(r.openSamples, d.Seconds())
	}
	return nil
}

// measureDisk sums the stores' files after close.
func (r *rep) measureDisk(dirs ...string) error {
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(path string, de fs.DirEntry, err error) error {
			if err != nil || de.IsDir() {
				return err
			}
			fi, err := de.Info()
			if err != nil {
				return err
			}
			r.storeBytes += fi.Size()
			switch {
			case strings.HasSuffix(path, ".wal"):
				r.walBytes += fi.Size()
			case strings.HasSuffix(path, ".seg"):
				r.segBytes += fi.Size()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("measuring %s: %w", d, err)
		}
	}
	return nil
}
