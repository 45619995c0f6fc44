// Command specbench is the repository's end-to-end benchmark. It drives
// the internal/core facade through the pipeline users run — stream traces
// into a durable store, reopen it out of core, mine rules, ingest live
// traffic, reopen it, check it — checks every output against in-memory
// reference answers, and prints one JSON result line.
//
//	specbench --workload ingest-locking --seed 1 --seconds 30 --trace 0
//
// See README.md for the metrics, the layer each one belongs to and how to
// read the traced run's layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"specmine/internal/core"
)

// A run measures at least minReps repetitions and minQueries selective
// queries, however short --seconds is. The first setupReps repetitions each
// set up afresh, which setup_s reports; later ones reuse the last inputs,
// which the same seed makes identical.
const (
	minReps    = 3
	minQueries = 100
	setupReps  = 3
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	workdir  string
	inject   bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	var traceN int
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", `workload name, or "all" to run each in turn`)
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 40, "seconds to measure for")
	fs.IntVar(&traceN, "trace", 0, "1: traced run printing per-layer metrics")
	fs.Float64Var(&c.scale, "scale", 1, "multiplies every trace count (tiny runs for tests)")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "specbench"), "scratch directory for stores and spans")
	fs.BoolVar(&c.inject, "inject-mismatch", false, "corrupt one reference answer (tests the correctness check)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := findWorkload(c.workload); !ok && c.workload != "all" {
		return c, fmt.Errorf("--workload must be all or one of %s", strings.Join(workloadNames(), ", "))
	}
	if traceN != 0 && traceN != 1 {
		return c, errors.New("--trace must be 0 or 1")
	}
	if c.seconds <= 0 || c.scale <= 0 || c.scale > 1 {
		return c, errors.New("--seconds must be positive and --scale in (0, 1]")
	}
	c.trace = traceN == 1
	return c, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(2)
	}
	names := []string{c.workload}
	if c.workload == "all" {
		names = workloadNames()
	}
	ok := true
	for _, name := range names {
		c.workload = name
		res, err := measure(c, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "specbench:", err)
		}
		if res != nil {
			b, _ := json.Marshal(res) // a map of plain numbers always marshals
			fmt.Println(string(b))
		}
		ok = ok && err == nil && res != nil && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run parses args and measures the one workload they name.
func run(args []string, out, stderr io.Writer) (*result, error) {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return nil, err
	}
	return measure(c, out)
}

// measure runs one workload for the configured time and returns the
// result; it returns an error with a nil result when nothing was measured,
// and with a result when outputs were wrong.
func measure(c config, out io.Writer) (*result, error) {
	w, ok := findWorkload(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	w = w.scaled(c.scale)
	runDir := filepath.Join(c.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	fmt.Fprintf(out, "specbench %s seed=%d hist=%d live=%d nproc=%d GOMAXPROCS=%d producers=%d workers=%d sync=off trace=%v\n",
		w.Name, c.seed, w.Hist, w.Live, runtime.NumCPU(), runtime.GOMAXPROCS(0), producers, mineWorkers, c.trace)

	var plain, traced []*rep
	var setups []float64
	res := &result{Metrics: map[string]metric{}}
	start := time.Now()
	var last float64 // seconds the previous repetition took
	var failure error
	var in *inputs
	queries := 0
	for i := 0; ; i++ {
		enough := queries >= minQueries || c.trace // traced runs report no latency
		if i >= minReps && enough && time.Since(start).Seconds()+last > c.seconds {
			break
		}
		t0 := time.Now()
		// Set-up: generate the inputs, compute the references and create
		// the repetition's directories.
		if i < setupReps {
			var err error
			if in, err = setup(w, c.seed); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		dirs := []string{filepath.Join(runDir, fmt.Sprintf("rep-%d", i))}
		if c.trace {
			dirs = append(dirs, filepath.Join(runDir, fmt.Sprintf("rep-%d-traced", i)))
		}
		for _, d := range dirs {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
		if i < setupReps {
			setups = append(setups, time.Since(t0).Seconds())
			fmt.Fprintf(out, "setup %d: %.4f s\n", i, setups[i])
		}

		passes := []bool{false}
		if c.trace {
			passes = []bool{i%2 == 1, i%2 == 0} // alternate which pass runs first
		}
		for _, tr := range passes {
			dir := dirs[0]
			if tr {
				dir = dirs[1]
			}
			runtime.GC() // leave set-up's garbage out of the timed phases
			// Untraced runs cycle through the pool for their latency
			// percentiles; traced runs repeat one slice, so that per-layer
			// counts compare like with like.
			from := i * queriesPerRep % queryPool
			if c.trace {
				from = 0
			}
			r := newRep(w, in, in.Queries[from:from+queriesPerRep], dir, tr, fmt.Sprintf("rep-%d", i))
			r.inject = c.inject
			err := r.run()
			res.Attempted += r.attempted
			res.Failed += r.failed
			for _, m := range r.mismatches {
				fmt.Fprintln(out, "MISMATCH", m)
			}
			if tr {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
				queries += len(r.queryMs)
				fmt.Fprintf(out, "rep %d: pipeline_s=%.4f", i, r.pipelineS())
				for _, p := range phases {
					fmt.Fprintf(out, " %s=%.4f", p, r.phaseS[p])
				}
				fmt.Fprintf(out, " segments=%d+%d bodies_opened=%d violations=%d\n",
					r.histSegs, r.liveSegs, bodies(r), r.violations)
			}
			if err != nil {
				failure = err
				break
			}
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
		if failure != nil || res.Failed > 0 {
			break
		}
		last = time.Since(t0).Seconds()
	}
	res.Correct = res.Failed == 0 && failure == nil
	if len(plain) == 0 {
		return nil, failure
	}
	fmt.Fprintf(out, "inputs fingerprint %016x, %d history + %d live events, cache budget %d B (decoded history %.2f MB)\n",
		in.Print, in.HistEvents, in.LiveEvents, in.Budget, in.DecodedMB)

	e2e := endToEnd(plain, setups)
	fmt.Fprintf(out, "failed_frac %.6g ratio (%d failed of %d attempted)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	printPhases(out, plain)
	for _, m := range e2eMetrics {
		fmt.Fprintf(out, "%-24s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	if !c.trace {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res, failure
	}
	if len(traced) == 0 {
		return res, failure
	}
	layers := perLayer(traced, plain)
	var spans []span
	pipe := 0.0
	for _, r := range traced {
		spans = append(spans, r.tr.spans...)
		pipe += r.pipelineS()
	}
	writeLayerTable(out, spans, len(traced), pipe/float64(len(traced)))
	fmt.Fprintf(out, "per-layer metrics (median of %d traced repetitions; \"exact\": identical in every one)\n", len(traced))
	for _, m := range layerMetrics {
		v := layers[m.name]
		res.Metrics[m.name] = metric{v.median, m.unit}
		fmt.Fprintf(out, "  %-34s %14.6g %-8s %s\n", m.name, v.median, m.unit, v.repeat)
	}
	path := filepath.Join(c.workdir, "spans", fmt.Sprintf("%s-seed%d.json", w.Name, c.seed))
	if err := writeSpans(path, spans); err != nil {
		return res, errors.Join(failure, err)
	}
	fmt.Fprintf(out, "spans: %s\n", path)
	return res, failure
}

func bodies(r *rep) int64 {
	n := int64(0)
	for _, s := range []*core.OutOfCoreStats{r.mineOO, r.checkOO} {
		if s != nil {
			n += s.BodiesOpened
		}
	}
	return n
}

// printPhases prints each phase's median time and its share of the median
// pipeline time.
func printPhases(out io.Writer, reps []*rep) {
	pipe := median(collect(reps, (*rep).pipelineS))
	fmt.Fprintf(out, "phase shares (median of %d repetitions)\n", len(reps))
	for _, p := range phases {
		v := median(collect(reps, func(r *rep) float64 { return r.phaseS[p] }))
		fmt.Fprintf(out, "  %-12s %9.4f s %6.1f%%\n", p, v, 100*v/pipe)
	}
	var q []float64
	for _, r := range reps {
		q = append(q, r.queryMs...)
	}
	fmt.Fprintf(out, "  where queries: %d samples, %.4f s in total per repetition\n",
		len(q), sum(q)/1e3/float64(len(reps)))
}

type metricDef struct {
	name, unit, better string
}

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"pipeline_s", "s", "lower"},
	{"ingest_events_per_s", "events/s", "higher"},
	{"open_s", "s", "lower"},
	{"mine_s", "s", "lower"},
	{"check_s", "s", "lower"},
	{"where_p50_ms", "ms", "lower"},
	{"where_p90_ms", "ms", "lower"},
	{"store_bytes_per_event", "B/event", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// openQuantile is the quantile of the pooled first-open samples reported as
// open_s. An open takes milliseconds, and a slower host makes it take
// longer, never shorter, in bursts that outlast a repetition; the fastest
// decile prices the open's own work where the median follows the host.
const openQuantile = 0.1

// endToEnd reduces the untraced repetitions to the end-to-end metrics:
// medians over repetitions, query latency percentiles over every query of
// every repetition, and open_s and check_s over all their samples.
func endToEnd(reps []*rep, setups []float64) map[string]float64 {
	var q, opens, checks []float64
	for _, r := range reps {
		q = append(q, r.queryMs...)
		opens = append(opens, r.openSamples...)
		checks = append(checks, r.checkSamples...)
	}
	return map[string]float64{
		"setup_s":    median(setups),
		"pipeline_s": median(collect(reps, (*rep).pipelineS)),
		"ingest_events_per_s": median(collect(reps, func(r *rep) float64 {
			return float64(r.ingestEvents) / r.ingestS
		})),
		"open_s":       quantile(opens, openQuantile),
		"mine_s":       median(collect(reps, func(r *rep) float64 { return r.mineS })),
		"check_s":      median(checks),
		"where_p50_ms": quantile(q, 0.5),
		"where_p90_ms": quantile(q, 0.9),
		"store_bytes_per_event": median(collect(reps, func(r *rep) float64 {
			return float64(r.storeBytes) / float64(r.in.HistEvents+r.in.LiveEvents)
		})),
		"alloc_mb": median(collect(reps, func(r *rep) float64 { return float64(r.allocBytes) / 1e6 })),
	}
}

func collect(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
