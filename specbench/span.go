package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer's public functions. Spans of one pipeline repetition share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: no parent
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	// Outside marks spans outside the six timed phases: isolation probes,
	// correctness checks and reading online results.
	Outside bool `json:"outside"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory. It is used from the pipeline's goroutine
// only; a nil tracer records nothing, which is the untraced mode.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	stack []int // indexes into spans of the open spans
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span as a child of the innermost open span. A span is
// inside the timed phases when it is a phase or descends from one.
func (t *tracer) begin(name string) { t.open(name, false) }

// beginOutside opens a span excluded from the timed phases.
func (t *tracer) beginOutside(name string) { t.open(name, true) }

func (t *tracer) open(name string, outside bool) {
	if t == nil {
		return
	}
	sp := span{ID: len(t.spans) + 1, Run: t.run, Name: name, Start: time.Since(t.t0).Seconds()}
	if n := len(t.stack); n > 0 {
		p := t.spans[t.stack[n-1]]
		sp.Parent, sp.Outside = p.ID, p.Outside || outside
	} else {
		sp.Outside = outside || !slices.Contains(phases, name)
	}
	t.spans = append(t.spans, sp)
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.t0).Seconds()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// total sums the durations of the spans with the given name inside the
// timed phases.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == name && !sp.Outside {
			s += sp.dur()
		}
	}
	return s
}

// selfTimes returns, per name of the spans keep selects, the summed
// duration and the summed self time: the span's duration minus the part of
// it its children cover. Children of one span run one after another, so
// their durations add up.
func selfTimes(spans []span, keep func(span) bool) (count map[string]int, total, self map[string]float64) {
	count = map[string]int{}
	total = map[string]float64{}
	self = map[string]float64{}
	childDur := map[string]float64{} // key: run/parent id
	for _, sp := range spans {
		if sp.Parent != 0 {
			childDur[fmt.Sprintf("%s/%d", sp.Run, sp.Parent)] += sp.dur()
		}
	}
	for _, sp := range spans {
		if !keep(sp) {
			continue
		}
		count[sp.Name]++
		total[sp.Name] += sp.dur()
		self[sp.Name] += sp.dur() - childDur[fmt.Sprintf("%s/%d", sp.Run, sp.ID)]
	}
	return count, total, self
}

// writeLayerTable prints the self time of every span name, averaged over
// the traced repetitions, and its share of the mean traced pipeline time.
// Spans outside the timed phases are listed apart: their share says how
// large that work is next to the pipeline, not that it is part of it.
func writeLayerTable(w io.Writer, spans []span, reps int, pipelineS float64) {
	fmt.Fprintf(w, "layer table (%d traced repetitions, mean pipeline_s %.4f)\n", reps, pipelineS)
	fmt.Fprintf(w, "  %-40s %7s %11s %11s %8s\n", "span", "calls", "total_s", "self_s", "share")
	for _, part := range []struct {
		title   string
		outside bool
	}{{"inside the six timed phases", false}, {"outside pipeline_s", true}} {
		fmt.Fprintf(w, "  %s\n", part.title)
		count, total, self := selfTimes(spans, func(sp span) bool { return sp.Outside == part.outside })
		names := make([]string, 0, len(count))
		for n := range count {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		for _, n := range names {
			r := float64(reps)
			share := 0.0
			if pipelineS > 0 {
				share = self[n] / r / pipelineS
			}
			fmt.Fprintf(w, "    %-38s %7d %11.4f %11.4f %7.1f%%\n", n, count[n]/reps, total[n]/r, self[n]/r, 100*share)
		}
	}
}

// writeSpans writes every span as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
