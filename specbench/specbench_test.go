package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tiny runs one workload at smoke-test size and returns the result and
// the printed report.
func tiny(t *testing.T, workload, seed string, extra ...string) (*result, string, error) {
	t.Helper()
	var out bytes.Buffer
	args := append([]string{"--workload", workload, "--seed", seed, "--seconds", "0.01",
		"--scale", "0.02", "--workdir", t.TempDir()}, extra...)
	res, err := run(args, &out, &out)
	return res, out.String(), err
}

func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit, Better string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload end to end at tiny sizes: every output
// matches its reference and every end-to-end metric is emitted with its
// unit.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the program's is %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, out, err := tiny(t, w.Name, "1")
			if err != nil || res == nil || !res.Correct || res.Failed != 0 {
				t.Fatalf("run failed (err %v):\n%s", err, out)
			}
			checkMetrics(t, res, f.EndToEnd)
			for _, m := range e2eMetrics {
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`).MatchString(out) {
					t.Errorf("report does not print %s with unit %s", m.name, m.unit)
				}
			}
			if !regexp.MustCompile(`(?m)^failed_frac 0 ratio`).MatchString(out) {
				t.Errorf("report does not print failed_frac 0:\n%s", out)
			}
		})
	}
}

// TestTracedSmoke checks that a traced run emits every per-layer metric and
// prints the layer table and the tracing overhead.
func TestTracedSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	res, out, err := tiny(t, "check-transaction", "1", "--trace", "1")
	if err != nil || res == nil || !res.Correct {
		t.Fatalf("run failed (err %v):\n%s", err, out)
	}
	checkMetrics(t, res, f.PerLayer)
	for _, want := range []string{"layer table", "trace.overhead_ratio", "core.MineStoreRules", "probe.rules.search"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("traced report lacks %q", want)
		}
	}
}

// TestInjectedMismatch checks that a wrong reference answer is counted as a
// failed operation and fails the run.
func TestInjectedMismatch(t *testing.T) {
	res, out, err := tiny(t, "mine-security-oocore", "1", "--inject-mismatch")
	if err != nil {
		t.Fatalf("run error: %v\n%s", err, out)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("injected mismatch not caught: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	if !regexp.MustCompile(`(?m)^failed_frac \S+ ratio \([1-9]\d* failed`).MatchString(out) || !bytes.Contains([]byte(out), []byte("MISMATCH CheckStore")) {
		t.Errorf("report does not show the mismatch:\n%s", out)
	}
}

// TestSeedChangesInputs checks that another seed generates other inputs
// but the same metric names.
func TestSeedChangesInputs(t *testing.T) {
	w, _ := findWorkload("ingest-locking")
	w = w.scaled(0.02)
	a, err := setup(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Print == b.Print {
		t.Error("seeds 1 and 2 generated the same traces")
	}
	if again, _ := setup(w, 1); again.Print != a.Print {
		t.Error("seed 1 generated different traces twice")
	}
	names := func(seed string) []string {
		res, out, err := tiny(t, "ingest-locking", seed)
		if err != nil || res == nil || !res.Correct {
			t.Fatalf("seed %s failed (err %v):\n%s", seed, err, out)
		}
		var ns []string
		for n := range res.Metrics {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		return ns
	}
	if x, y := names("1"), names("2"); !slices.Equal(x, y) {
		t.Errorf("metric names differ between seeds: %v vs %v", x, y)
	}
}

// TestPolicyFile keeps policy.json equal to the workload table. Regenerate
// it with SPECBENCH_WRITE_POLICY=1 go test -run TestPolicyFile.
func TestPolicyFile(t *testing.T) {
	want, err := policyJSON()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("SPECBENCH_WRITE_POLICY") == "1" {
		if err := os.WriteFile("policy.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("policy.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("policy.json is out of date; regenerate it with SPECBENCH_WRITE_POLICY=1 go test -run TestPolicyFile")
	}
}
