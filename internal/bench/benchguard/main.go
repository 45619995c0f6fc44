// Command benchguard is the CI benchmark-regression gate. It re-measures the
// headline cases — synth closed mining, the batched conformance check, dense
// sequential-pattern (comparator) mining, and durable store ingestion (as a
// soft, report-only row until the trajectory has history) — writes
// benchstat-compatible sample files (old.txt holding the checked-in
// BENCH_mining.json trajectory values, new.txt the live measurements), and
// exits non-zero when any hard case's best live run is more than the allowed
// factor slower than its trajectory value. Every case is measured and
// reported in one table before the verdict, so a regression in one case
// never hides another.
//
// CI runs it as
//
//	go run ./internal/bench/benchguard -trajectory BENCH_mining.json -out /tmp/benchguard
//	benchstat /tmp/benchguard/old.txt /tmp/benchguard/new.txt
//
// so the human-readable delta report comes from benchstat while the
// pass/fail decision stays hermetic (no external tooling needed to gate).
//
// Beyond the per-case regression budget, the guard enforces ratio floors: a
// parallel-speedup floor on the closed-mining headline (workers=4 vs
// workers=1, measured live at GOMAXPROCS >= 4) that fails hard on multi-core
// runners and downgrades to report-only where the machine cannot physically
// exhibit parallelism, a soft durable-vs-memory throughput floor on the
// store headline, and — since schema v7 — two out-of-core floors on the
// clustered fixture of internal/bench/oocore.go: a soft oo-core-ratio floor
// (out-of-core mining throughput vs the in-memory cold path on a
// fits-in-RAM store, unlimited cache) and a hard segment-skip floor (the
// selective-rule check must answer >= 90% of segment bodies from statistics
// alone — a drop means segment statistics or the skip predicate regressed).
// Since schema v8 the guard also measures the stats-driven planner floor
// (the selective rule check through the planned, statistics-gated descent
// must beat the unplanned online automaton by the -planner-floor factor,
// soft until the trajectory has history), validates that the trajectory
// carries the v8 planner_cases section, and writes the headline query plan's
// Explain() render to <out>/explain.txt so CI uploads the plan alongside the
// benchstat samples. The observability generation added a hard obs-overhead
// floor: durable ingest with a live metrics registry attached to the store
// and the ingester must retain at least -obs-floor (default 0.97) of the
// uninstrumented run's throughput, both sides measured live in this run.
// Scaling rows that were measured on a machine with fewer
// processors than workers (num_cpu < workers at gomaxprocs >= workers — a
// sandboxed regeneration) are annotated as overhead-only rather than trusted
// as scaling evidence.
// All floors are measured live rather than read from the trajectory, so the
// gate cannot be satisfied by a stale file.
//
// The SPECMINE_CPUPROFILE / SPECMINE_MUTEXPROFILE environment toggles (see
// internal/bench/profile.go) capture profiles of exactly what the guard
// measured.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"specmine/internal/bench"
	"specmine/internal/core"
	"specmine/internal/iterpattern"
	"specmine/internal/obs"
	"specmine/internal/plan"
	"specmine/internal/seqdb"
	"specmine/internal/seqpattern"
	"specmine/internal/store"
	"specmine/internal/stream"
	"specmine/internal/verify"
)

// scalingRow mirrors the v6 trajectory's per-row scaling schema; the guard
// reads it to sanity-check that the checked-in curve was measured honestly
// (no parallel row with gomaxprocs < workers — the v5 file's defect).
type scalingRow struct {
	Workers    int   `json:"workers"`
	NsPerOp    int64 `json:"ns_per_op"`
	Gomaxprocs int   `json:"gomaxprocs"`
	NumCPU     int   `json:"num_cpu"`
}

type trajectoryCase struct {
	Name        string       `json:"name"`
	FlatNsPerOp int64        `json:"flat_ns_per_op"`
	Scaling     []scalingRow `json:"scaling"`
}

type verifyTrajectoryCase struct {
	Name           string `json:"name"`
	BatchedNsPerOp int64  `json:"batched_ns_per_op"`
}

type storeTrajectoryCase struct {
	Name           string `json:"name"`
	DurableNsPerOp int64  `json:"durable_ns_per_op"`
}

// plannerTrajectoryCase mirrors the v8 trajectory's planner section; the
// guard only needs to know the section exists and what speedup was recorded
// (the floor itself is measured live).
type plannerTrajectoryCase struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"`
}

type trajectory struct {
	Schema          string                  `json:"schema"`
	Cases           []trajectoryCase        `json:"cases"`
	SeqPatternCases []trajectoryCase        `json:"seqpattern_cases"`
	VerifyCases     []verifyTrajectoryCase  `json:"verify_cases"`
	StoreCases      []storeTrajectoryCase   `json:"store_cases"`
	PlannerCases    []plannerTrajectoryCase `json:"planner_cases"`
}

// trajectorySchema is the schema generation the guard accepts. Bumped in
// lockstep with the writer in internal/bench/bench_test.go — an old file
// fails fast instead of silently skipping the sections it is missing.
const trajectorySchema = "specmine/bench-mining/v8"

// gate is one benchmark case the guard re-measures against its trajectory
// value.
type gate struct {
	label     string // table row label
	benchName string // benchstat sample name
	oldNs     int64
	run       func(b *testing.B)
	// soft marks a report-only row: it is measured and printed but never
	// fails the build. The durable-ingest headline starts soft because a
	// single trajectory point on a virtualised runner is not yet a trend —
	// once a second PR has recorded a point (two store_cases generations in
	// the file's history), flip it to a hard gate.
	soft bool

	best int64 // filled by measurement
}

// ratioCheck is one live-measured floor: a ratio (speedup or throughput
// fraction) that must stay at or above its floor. Unlike gates it has no
// trajectory baseline — both sides of the ratio are measured in this run.
type ratioCheck struct {
	label string
	floor float64
	value float64
	soft  bool   // report-only: printed, never fails the build
	note  string // why a check is soft, when it is
}

// speedupWorkers is the parallel worker count the speedup floor compares
// against the sequential run. Matches the acceptance headline: workers=4
// must reach the floor over workers=1.
const speedupWorkers = 4

// profStop flushes any SPECMINE_*PROFILE captures; fatalf calls it so a
// failed gate still uploads its profiles.
var profStop = func() error { return nil }

func main() {
	trajPath := flag.String("trajectory", "BENCH_mining.json", "path to the checked-in trajectory file")
	outDir := flag.String("out", ".", "directory for the benchstat sample files old.txt and new.txt")
	count := flag.Int("count", 5, "number of live benchmark runs per case")
	factor := flag.Float64("factor", 1.5, "maximum allowed ns/op regression factor")
	speedupFloor := flag.Float64("speedup-floor", 2.5, "minimum closed-mining speedup at workers=4 vs workers=1 (hard when NumCPU >= 4)")
	durableFloor := flag.Float64("durable-floor", 0.7, "minimum durable-ingest throughput as a fraction of memory-only (report-only)")
	fsimFloor := flag.Float64("fsim-floor", 0.97, "minimum durable-ingest throughput vs the pre-fsim trajectory value (report-only; <3% filesystem-indirection overhead)")
	oocoreFloor := flag.Float64("oocore-floor", 0.5, "minimum out-of-core mining throughput as a fraction of the in-memory cold path (report-only)")
	skipFloor := flag.Float64("skip-floor", 0.9, "minimum segment skip rate on the selective-rule check workload (hard)")
	plannerFloor := flag.Float64("planner-floor", 1.5, "minimum planned-vs-unplanned speedup on the selective rule check (report-only)")
	obsFloor := flag.Float64("obs-floor", 0.97, "minimum instrumented durable-ingest throughput as a fraction of uninstrumented (hard)")
	flag.Parse()

	stop, err := bench.StartProfiles()
	if err != nil {
		fatalf("%v", err)
	}
	profStop = stop

	buf, err := os.ReadFile(*trajPath)
	if err != nil {
		fatalf("reading trajectory: %v", err)
	}
	var traj trajectory
	if err := json.Unmarshal(buf, &traj); err != nil {
		fatalf("parsing trajectory: %v", err)
	}
	if traj.Schema != trajectorySchema {
		fatalf("trajectory schema %q, want %q — regenerate BENCH_mining.json with the current writer", traj.Schema, trajectorySchema)
	}
	if len(traj.PlannerCases) == 0 {
		fatalf("trajectory has no planner_cases — regenerate BENCH_mining.json with the v8 writer")
	}
	checkScalingRows(traj)

	gates := []*gate{miningGate(traj), verifyGate(traj), seqPatternGate(traj)}
	sg := storeGate(traj)
	if sg != nil {
		gates = append(gates, sg)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("creating output directory: %v", err)
	}
	var oldBuf, newBuf bytes.Buffer
	writeHeader(&oldBuf)
	writeHeader(&newBuf)

	for _, g := range gates {
		writeSamples(&oldBuf, g.benchName, []int64{g.oldNs})
		samples := make([]int64, 0, *count)
		for i := 0; i < *count; i++ {
			ns := testing.Benchmark(g.run).NsPerOp()
			samples = append(samples, ns)
			if g.best == 0 || ns < g.best {
				g.best = ns
			}
		}
		writeSamples(&newBuf, g.benchName, samples)
	}
	if err := os.WriteFile(filepath.Join(*outDir, "old.txt"), oldBuf.Bytes(), 0o644); err != nil {
		fatalf("writing old.txt: %v", err)
	}
	if err := os.WriteFile(filepath.Join(*outDir, "new.txt"), newBuf.Bytes(), 0o644); err != nil {
		fatalf("writing new.txt: %v", err)
	}

	// One readable verdict table covering every case, then the exit status.
	failed := 0
	fmt.Printf("benchguard: best of %d live runs vs checked-in trajectory (budget %.2fx)\n", *count, *factor)
	fmt.Printf("  %-42s %14s %14s %7s %7s\n", "case", "old ns/op", "best ns/op", "ratio", "status")
	for _, g := range gates {
		limit := int64(float64(g.oldNs) * *factor)
		status := "ok"
		switch {
		case g.best > limit && g.soft:
			status = "SOFT" // over budget, report-only: see gate.soft
		case g.best > limit:
			status = "FAIL"
			failed++
		case g.soft:
			status = "ok*" // report-only row within budget
		}
		fmt.Printf("  %-42s %14d %14d %6.2fx %7s\n",
			g.label, g.oldNs, g.best, float64(g.best)/float64(g.oldNs), status)
	}

	checks := []*ratioCheck{speedupCheck(*speedupFloor), durableRatioCheck(*durableFloor), obsOverheadCheck(*obsFloor)}
	if sg != nil {
		checks = append(checks, fsimOverheadCheck(*fsimFloor, sg))
	}
	checks = append(checks, oocoreChecks(*oocoreFloor, *skipFloor)...)
	checks = append(checks, plannerCheck(*plannerFloor, *outDir))
	fmt.Printf("benchguard: live ratio floors (gomaxprocs raised per measurement, num_cpu=%d)\n", runtime.NumCPU())
	fmt.Printf("  %-42s %8s %8s %7s\n", "check", "floor", "value", "status")
	for _, c := range checks {
		status := "ok"
		switch {
		case c.value < c.floor && c.soft:
			status = "SOFT"
		case c.value < c.floor:
			status = "FAIL"
			failed++
		case c.soft:
			status = "ok*"
		}
		fmt.Printf("  %-42s %7.2fx %7.2fx %7s", c.label, c.floor, c.value, status)
		if c.note != "" {
			fmt.Printf("  (%s)", c.note)
		}
		fmt.Println()
	}

	if failed > 0 {
		fatalf("%d checks failed (regression budget %.2fx / ratio floors)", failed, *factor)
	}
	if err := profStop(); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("benchguard: within budget")
}

// checkScalingRows rejects a trajectory whose scaling curves contain the v5
// defect: a parallel row recorded with fewer processors than workers. The
// writer refuses to produce such rows; the guard refuses to trust a file
// that contains one (hand-edited, or produced by an older writer).
//
// Rows the writer could legally emit but that were measured on a machine
// with fewer physical processors than workers (gomaxprocs raised to the
// worker count over num_cpu cores — a sandboxed or over-subscribed
// regeneration) are a different matter: they are honest about their
// conditions, but they measure scheduling overhead, not scaling. The guard
// annotates them as advisory instead of failing, so a trajectory regenerated
// in a 1-CPU sandbox is recognisable at a glance without blocking CI.
func checkScalingRows(traj trajectory) {
	advisory := 0
	check := func(section, name string, rows []scalingRow) {
		for _, r := range rows {
			if r.Workers > 1 && r.Gomaxprocs < r.Workers {
				fatalf("%s/%s: scaling row workers=%d recorded at gomaxprocs=%d — regenerate with the v6 writer",
					section, name, r.Workers, r.Gomaxprocs)
			}
			if r.Workers > 1 && r.NumCPU < r.Workers {
				fmt.Printf("benchguard: note: %s/%s workers=%d row measured on num_cpu=%d — overhead-only, advisory\n",
					section, name, r.Workers, r.NumCPU)
				advisory++
			}
		}
	}
	for _, tc := range traj.Cases {
		check("cases", tc.Name, tc.Scaling)
	}
	for _, tc := range traj.SeqPatternCases {
		check("seqpattern_cases", tc.Name, tc.Scaling)
	}
	if advisory > 0 {
		fmt.Printf("benchguard: %d scaling row(s) are sandbox-measured; treat their speedups as pool overhead, not scaling\n", advisory)
	}
}

// speedupCheck measures the closed-mining headline's parallel speedup live:
// workers=1 vs workers=4, each at GOMAXPROCS >= workers (restored after). On
// a runner with fewer than 4 processors the ratio measures scheduling
// overhead, not parallelism, so the floor downgrades to report-only there —
// CI's 4-vCPU runners enforce it hard.
func speedupCheck(floor float64) *ratioCheck {
	c := bench.ClosedCases()[0]
	ck := &ratioCheck{
		label: fmt.Sprintf("speedup/%s/workers=%d", c.Name, speedupWorkers),
		floor: floor,
	}
	if runtime.NumCPU() < speedupWorkers {
		ck.soft = true
		ck.note = fmt.Sprintf("num_cpu=%d < %d, report-only", runtime.NumCPU(), speedupWorkers)
	}
	db := c.Gen()
	db.FlatIndex()
	measure := func(workers int) int64 {
		opts := c.Opts
		opts.Workers = workers
		procs := runtime.NumCPU()
		if procs < workers {
			procs = workers
		}
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var best int64
		for i := 0; i < 3; i++ {
			ns := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := iterpattern.MineClosed(db, opts); err != nil {
						b.Fatal(err)
					}
				}
			}).NsPerOp()
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	sequential := measure(1)
	parallel := measure(speedupWorkers)
	ck.value = float64(sequential) / float64(parallel)
	return ck
}

// durableRatioCheck measures the store headline's durable-ingest throughput
// as a fraction of the memory-only ingester on the same operation stream.
// Soft (report-only) for the same reason as the store regression gate: a
// virtualised runner's fsync-adjacent numbers are too noisy to fail a build
// on a single run's ratio.
func durableRatioCheck(floor float64) *ratioCheck {
	c := bench.StoreCases()[0]
	ck := &ratioCheck{
		label: "durable-vs-memory/" + c.Name,
		floor: floor,
		soft:  true,
		note:  "report-only",
	}
	dict, ops, _, _ := c.GenStream()
	best := func(run func(b *testing.B)) int64 {
		var best int64
		for i := 0; i < 3; i++ {
			ns := testing.Benchmark(run).NsPerOp()
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	durable := best(durableRun(c, dict, ops))
	memory := best(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ing := stream.NewIngester(stream.Config{
				Shards: c.Shards, FlushBatch: c.FlushBatch, Dict: dict.Clone(),
			})
			for _, op := range ops {
				if err := applyOp(ing, op); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ing.Snapshot(); err != nil {
				b.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ck.value = float64(memory) / float64(durable)
	return ck
}

// obsOverheadCheck measures the cost of the observability layer on the
// durable-ingest headline: the same operation stream replayed with a live
// metrics registry attached to both the store and the ingester must stay
// within a few percent of the uninstrumented run. This floor is HARD — the
// whole design of internal/obs (nil-checked handles, striped atomics,
// enabled-gated clock reads) exists to make instrumentation free enough to
// leave on, and a regression here means a hot path grew a lock, an
// allocation, or an ungated time.Now(). Both sides are measured live in this
// run (best of 3), so runner speed cancels out of the ratio.
func obsOverheadCheck(floor float64) *ratioCheck {
	c := bench.StoreCases()[0]
	ck := &ratioCheck{
		label: "obs-overhead/" + c.Name,
		floor: floor,
	}
	dict, ops, _, _ := c.GenStream()
	best := func(run func(b *testing.B)) int64 {
		var best int64
		for i := 0; i < 3; i++ {
			ns := testing.Benchmark(run).NsPerOp()
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	disabled := best(durableRun(c, dict, ops))
	enabled := best(durableRunObs(c, dict, ops, true))
	ck.value = float64(disabled) / float64(enabled)
	return ck
}

// fsimOverheadCheck turns the store gate's measurement into an overhead
// floor: since every store syscall is now routed through the fsim.FS
// interface, the live durable-ingest headline must stay within a few percent
// of the trajectory value that was recorded against direct os calls. It
// reuses the gate's best-of-N sample rather than re-measuring, so the two
// rows can never disagree about what was observed. Soft for the same reason
// as the store gate itself: single-run fsync-adjacent numbers on a
// virtualised runner are too noisy to fail a build on.
func fsimOverheadCheck(floor float64, sg *gate) *ratioCheck {
	return &ratioCheck{
		label: "fsim-passthrough-overhead/" + sg.label,
		floor: floor,
		value: float64(sg.oldNs) / float64(sg.best),
		soft:  true,
		note:  "report-only; durable ingest vs pre-fsim trajectory",
	}
}

// oocoreChecks measures the two out-of-core floors on the shared clustered
// fixture (internal/bench/oocore.go): the mining-throughput ratio of
// MineStore (unlimited cache — the fits-in-RAM configuration) against the
// in-memory cold path (eager open + index + mine on the same store), and the
// fraction of segment bodies the selective cluster-0 rule check answered
// from per-segment statistics without decoding. The ratio is soft — the
// out-of-core path rebuilds a per-seed index that the in-memory side builds
// once, so its cost model is workload-shaped — but the skip rate is a pure
// correctness-of-pruning property and fails hard.
func oocoreChecks(ratioFloor, skipFloor float64) []*ratioCheck {
	c := bench.OocoreCases()[0]
	dir, err := os.MkdirTemp("", "benchguard-oocore-*")
	if err != nil {
		fatalf("oocore fixture dir: %v", err)
	}
	defer os.RemoveAll(dir)
	if _, err := c.BuildStore(dir); err != nil {
		fatalf("building oocore fixture: %v", err)
	}
	popts := core.PatternOptions{MinSupport: c.MinSupport(), MaxLength: 3}

	eager, err := store.Open(c.OpenOptions(dir))
	if err != nil {
		fatalf("opening oocore fixture: %v", err)
	}
	db := eager.Recovered().Database(eager.Dict())
	db.FlatIndex()
	refPatterns, err := core.MinePatterns(db, popts)
	if err != nil {
		fatalf("oocore in-memory reference: %v", err)
	}
	selective := c.SelectiveRules(db)
	if err := eager.Close(); err != nil {
		fatalf("closing oocore fixture: %v", err)
	}

	best := func(run func(b *testing.B)) int64 {
		var best int64
		for i := 0; i < 3; i++ {
			ns := testing.Benchmark(run).NsPerOp()
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	inmem := best(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := store.Open(c.OpenOptions(dir))
			if err != nil {
				b.Fatal(err)
			}
			mdb := st.Recovered().Database(st.Dict())
			mdb.FlatIndex()
			if _, err := core.MinePatterns(mdb, popts); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	lazy, err := c.OpenOutOfCore(dir)
	if err != nil {
		fatalf("opening oocore fixture out-of-core: %v", err)
	}
	res, _, err := core.MineStore(lazy, popts, core.OutOfCoreOptions{})
	if err != nil {
		fatalf("oocore MineStore: %v", err)
	}
	if len(res.Patterns) != len(refPatterns.Patterns) {
		fatalf("oocore MineStore found %d patterns, in-memory %d — equivalence broken, ratio meaningless",
			len(res.Patterns), len(refPatterns.Patterns))
	}
	_, stats, err := core.CheckStore(lazy, selective, core.OutOfCoreOptions{})
	if err != nil {
		fatalf("oocore CheckStore: %v", err)
	}
	if stats.SegmentsTotal == 0 {
		fatalf("oocore fixture has no segments")
	}
	if err := lazy.Close(); err != nil {
		fatalf("closing oocore fixture: %v", err)
	}
	// Like the in-memory side, every iteration starts from a fresh handle,
	// so the handle's segment cache stays cold.
	oocore := best(func(b *testing.B) {
		c.ColdLoop(b, dir, func(st *store.Store) error {
			_, _, err := core.MineStore(st, popts, core.OutOfCoreOptions{})
			return err
		})
	})
	return []*ratioCheck{
		{
			label: "oo-core-ratio/" + c.Name,
			floor: ratioFloor,
			value: float64(inmem) / float64(oocore),
			soft:  true,
			note:  "report-only; unlimited cache vs in-memory cold path",
		},
		{
			label: "segment-skip/" + c.Name,
			floor: skipFloor,
			value: float64(stats.SegmentsSkipped) / float64(stats.SegmentsTotal),
		},
	}
}

// plannerCheck measures the stats-driven planner floor live: the selective
// cluster-0 rule check through the planned descent (selectivity-ordered
// probes, premise gating, consequent short-circuiting) against the unplanned
// online automaton over the clustered fixture's eager database. Soft until
// the trajectory has planner history — a single generation is not a trend.
// The instrumented run's Explain() render, together with a predicated
// CheckStoreWhere sweep's catalog-level plan, is written to
// <outDir>/explain.txt so CI uploads the query plan the floor was measured
// on.
func plannerCheck(floor float64, outDir string) *ratioCheck {
	c := bench.OocoreCases()[0]
	dir, err := os.MkdirTemp("", "benchguard-planner-*")
	if err != nil {
		fatalf("planner fixture dir: %v", err)
	}
	defer os.RemoveAll(dir)
	if _, err := c.BuildStore(dir); err != nil {
		fatalf("building planner fixture: %v", err)
	}
	eager, err := store.Open(c.OpenOptions(dir))
	if err != nil {
		fatalf("opening planner fixture: %v", err)
	}
	db := eager.Recovered().Database(eager.Dict())
	db.FlatIndex()
	selective := c.SelectiveRules(db)
	if err := eager.Close(); err != nil {
		fatalf("closing planner fixture: %v", err)
	}
	engine, err := verify.NewEngine(selective)
	if err != nil {
		fatalf("compiling planner rules: %v", err)
	}

	best := func(run func(b *testing.B)) int64 {
		var best int64
		for i := 0; i < 3; i++ {
			ns := testing.Benchmark(run).NsPerOp()
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	unplanned := best(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = engine.Check(db)
		}
	})
	pl := plan.New(engine, plan.IndexStats{Idx: db.FlatIndex()})
	planned := best(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = pl.CheckDatabase(db)
		}
	})

	// One instrumented run each for the artifact: the in-memory headline plan
	// and the catalog-pruning plan of the same rules behind a cluster-0
	// predicate.
	_, run := pl.CheckDatabase(db)
	explain := run.Explain().Render(db.Dict)
	lazyOpts := c.OpenOptions(dir)
	lazyOpts.OutOfCore = true
	lazy, err := store.Open(lazyOpts)
	if err != nil {
		fatalf("opening planner fixture out-of-core: %v", err)
	}
	where := core.Where{HasAll: []seqdb.EventID{c.EventBase(db.Dict, 0)}}
	_, _, ex, err := core.CheckStoreWhere(lazy, selective, where, core.OutOfCoreOptions{})
	if err != nil {
		fatalf("planner CheckStoreWhere: %v", err)
	}
	if err := lazy.Close(); err != nil {
		fatalf("closing planner fixture: %v", err)
	}
	explain += "\n--- CheckStoreWhere (HasAll c0_open) ---\n" + ex.Render(db.Dict)
	if err := os.WriteFile(filepath.Join(outDir, "explain.txt"), []byte(explain), 0o644); err != nil {
		fatalf("writing explain.txt: %v", err)
	}

	return &ratioCheck{
		label: "planner-speedup/" + c.Name,
		floor: floor,
		value: float64(unplanned) / float64(planned),
		soft:  true,
		note:  "report-only; planned vs unplanned selective check",
	}
}

// miningGate re-measures the closed-mining acceptance headline.
func miningGate(traj trajectory) *gate {
	c := bench.ClosedCases()[0]
	g := &gate{
		label:     "mine-closed/" + c.Name,
		benchName: "BenchmarkMineClosed/" + c.Name + "/flat",
	}
	for _, tc := range traj.Cases {
		if tc.Name == c.Name {
			g.oldNs = tc.FlatNsPerOp
			break
		}
	}
	if g.oldNs == 0 {
		fatalf("headline case %s not found in trajectory", c.Name)
	}
	db := c.Gen()
	db.FlatIndex()
	g.run = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := iterpattern.MineClosed(db, c.Opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	return g
}

// verifyGate re-measures the batched conformance headline (which since the
// online overhaul also covers the streaming checker — Check drives it).
func verifyGate(traj trajectory) *gate {
	c := bench.VerifyCases()[0]
	g := &gate{
		label:     "verify-batched/" + c.Name,
		benchName: "BenchmarkVerify/" + c.Name + "/batched",
	}
	for _, vc := range traj.VerifyCases {
		if vc.Name == c.Name {
			g.oldNs = vc.BatchedNsPerOp
			break
		}
	}
	if g.oldNs == 0 {
		fatalf("verify headline case %s not found in trajectory", c.Name)
	}
	ruleSet, db := c.Gen()
	if len(ruleSet) == 0 {
		fatalf("verify headline case %s mined no rules", c.Name)
	}
	engine, err := verify.NewEngine(ruleSet)
	if err != nil {
		fatalf("compiling verify headline rules: %v", err)
	}
	g.run = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = engine.Check(db)
		}
	}
	return g
}

// seqPatternGate re-measures the dense sequential-pattern comparator
// headline (the unified-kernel miner over the flat index).
func seqPatternGate(traj trajectory) *gate {
	c := bench.SeqPatternCases()[0]
	g := &gate{
		label:     "mine-seqpattern/" + c.Name,
		benchName: "BenchmarkMineSeqPatterns/" + c.Name + "/flat",
	}
	for _, tc := range traj.SeqPatternCases {
		if tc.Name == c.Name {
			g.oldNs = tc.FlatNsPerOp
			break
		}
	}
	if g.oldNs == 0 {
		fatalf("seqpattern headline case %s not found in trajectory", c.Name)
	}
	db := c.Gen()
	db.FlatIndex()
	g.run = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := seqpattern.Mine(db, c.Opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	return g
}

// storeGate re-measures the durable-ingest headline as a soft (report-only)
// row; see gate.soft. Returns nil when the trajectory predates schema v5 and
// has no store section to compare against.
func storeGate(traj trajectory) *gate {
	c := bench.StoreCases()[0]
	g := &gate{
		label:     "store-ingest/" + c.Name,
		benchName: "BenchmarkStoreIngest/" + c.Name + "/durable",
		soft:      true,
	}
	for _, tc := range traj.StoreCases {
		if tc.Name == c.Name {
			g.oldNs = tc.DurableNsPerOp
			break
		}
	}
	if g.oldNs == 0 {
		return nil
	}
	dict, ops, _, _ := c.GenStream()
	g.run = durableRun(c, dict, ops)
	return g
}

// applyOp replays one pre-generated ingestion operation.
func applyOp(ing *stream.Ingester, op bench.StreamOp) error {
	if op.Seal {
		return ing.CloseTrace(op.TraceID)
	}
	return ing.IngestIDs(op.TraceID, op.Events...)
}

// durableRun builds the store-backed replay loop shared by the regression
// gate and the durable-vs-memory ratio check: open a store in a fresh
// directory, replay the stream through a store-backed ingester, snapshot,
// and close cleanly. Directory setup/teardown stays off the clock.
func durableRun(c bench.StreamCase, dict *seqdb.Dictionary, ops []bench.StreamOp) func(b *testing.B) {
	return durableRunObs(c, dict, ops, false)
}

// durableRunObs is durableRun with an optional live metrics registry attached
// to the store and the ingester — the instrumented side of the obs-overhead
// floor. A fresh registry per iteration keeps registration cost on the clock,
// exactly as a real instrumented session pays it.
func durableRunObs(c bench.StreamCase, dict *seqdb.Dictionary, ops []bench.StreamOp, instrumented bool) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "benchguard-store-*")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			var reg *obs.Registry
			if instrumented {
				reg = obs.NewRegistry()
			}
			st, err := store.Open(store.Options{Dir: dir, Shards: c.Shards, Obs: reg})
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range dict.Export() {
				st.Dict().Intern(name)
			}
			ing, err := stream.Open(stream.Config{FlushBatch: c.FlushBatch, Store: st, Obs: reg})
			if err != nil {
				b.Fatal(err)
			}
			for _, op := range ops {
				if err := applyOp(ing, op); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ing.Snapshot(); err != nil {
				b.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	}
}

func writeHeader(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "goos: %s\ngoarch: %s\npkg: specmine/internal/bench\n", runtime.GOOS, runtime.GOARCH)
}

// writeSamples appends benchstat-parsable sample lines.
func writeSamples(buf *bytes.Buffer, benchName string, nsPerOp []int64) {
	for _, ns := range nsPerOp {
		fmt.Fprintf(buf, "%s \t       1\t%12d ns/op\n", benchName, ns)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	if err := profStop(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
	}
	os.Exit(1)
}
