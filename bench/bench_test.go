package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runBench runs the command in-process and returns its exit code, its
// report and the metrics of its last line.
func runBench(t *testing.T, args ...string) (int, string, map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	stderr = io.Discard
	if testing.Verbose() {
		stderr = os.Stderr
	}
	var out bytes.Buffer
	args = append(args, "-scale", "smoke", "-seconds", "0", "-workdir", t.TempDir())
	code := mainExit(args, &out, time.Now())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("result %+v", res)
		}
	}
	return code, out.String(), res.Metrics
}

// TestSmokeEndToEnd runs every workload at smoke scale: the checks of
// the run hold (exit 0), every gated metric of BENCHMARK.json is there
// under its unit, finite and positive, and edge_mem and edge_wal — one
// seed, one trace — publish the same plans.
func TestSmokeEndToEnd(t *testing.T) {
	spec := readBenchmarkJSON(t)
	prints := map[string]string{}
	for _, w := range spec.Workloads {
		code, report, metrics := runBench(t, "-workload", w.Name, "-trace", "0")
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.Name, code, report)
		}
		if len(metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", w.Name, len(metrics), len(spec.EndToEnd))
		}
		for _, g := range spec.EndToEnd {
			m, ok := metrics[g.Name]
			if !ok || m.Unit != g.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive finite value in %s", w.Name, g.Name, m, ok, g.Unit)
			}
		}
		for _, line := range strings.Split(report, "\n") {
			if rest, ok := strings.CutPrefix(line, "plans: fingerprint "); ok {
				prints[w.Name], _, _ = strings.Cut(rest, " ")
			}
		}
		if !strings.Contains(report, "env: commit=") || !strings.Contains(report, "ops: 0 failed of ") {
			t.Errorf("%s: report lacks the environment stamp or the failed/attempted line:\n%s", w.Name, report)
		}
	}
	if prints["edge_mem"] == "" || prints["edge_mem"] != prints["edge_wal"] {
		t.Errorf("edge_mem plans %q, edge_wal plans %q: want equal and non-empty", prints["edge_mem"], prints["edge_wal"])
	}
	if prints["city_sched"] == prints["edge_mem"] {
		t.Errorf("city_sched publishes the plans of edge_mem")
	}
}

// TestSmokeTraced runs every workload's traced run: every per-layer
// metric of BENCHMARK.json is reported under its unit and finite, and
// the span file holds well-formed spans whose parents exist.
func TestSmokeTraced(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, w := range spec.Workloads {
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		code, report, metrics := runBench(t, "-workload", w.Name, "-trace", "1", "-spans", spans)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.Name, code, report)
		}
		if len(metrics) != len(spec.PerLayer) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", w.Name, len(metrics), len(spec.PerLayer))
		}
		for _, g := range spec.PerLayer {
			m, ok := metrics[g.Name]
			if !ok || m.Unit != g.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.Name, g.Name, m, ok, g.Unit)
			}
		}
		for _, name := range []string{"server.ingest_handler_ns", "core.round_ms", "wal.recover_ms", "bench.echo_p50_us"} {
			if metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", w.Name, name, metrics[name].Value)
			}
		}

		f, err := os.Open(spans)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[int32]bool{0: true}
		names := map[string]int{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s struct {
				ID, Parent int32
				Name       string
				Workload   string
				Start      int64 `json:"start_ns"`
				End        int64 `json:"end_ns"`
			}
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span line %q: %v", w.Name, sc.Text(), err)
			}
			if !ids[s.Parent] || s.End < s.Start || s.Workload != w.Name {
				t.Fatalf("%s: bad span %+v", w.Name, s)
			}
			ids[s.ID] = true
			names[s.Name]++
		}
		f.Close()
		for _, name := range []string{"bench.setup", "bench.slot", "client.conn", "client.ingest", "client.redirect", "server.fresh", "bench.layers", "core.round", "sim.run"} {
			if names[name] == 0 {
				t.Errorf("%s: no %q span among %v", w.Name, name, names)
			}
		}
	}
}

// TestWrongOutputPrintsNoMetrics: a request the server never saw and an
// offline reference plan that differs by one bit each make the command
// fail without printing a result.
func TestWrongOutputPrintsNoMetrics(t *testing.T) {
	for _, inject := range []string{"drop-request", "corrupt-reference"} {
		code, report, _ := runBench(t, "-workload", "edge_mem", "-inject", inject)
		if code == 0 || strings.Contains(report, "metrics") || strings.Contains(report, "ingest_krps") {
			t.Errorf("-inject %s: exit %d, report %q; want failure and no metrics", inject, code, report)
		}
	}
}

// TestBenchmarkJSONMatchesCode: the contract file and the program agree
// on the workloads and on the gated metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, g := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != g.name || s.Unit != g.unit || s.Better != g.better || s.Bound != g.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, s, g)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
}

// TestQuartiles pins the spread statistic to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
