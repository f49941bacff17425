// Command bench is the repository's benchmark: it drives the real
// serving tier over loopback sockets through three workloads of one run
// shape, checks every output against the offline simulator, and prints
// eight end-to-end metrics per workload — or, with -trace 1, the
// per-layer metrics, measured by timing calls into each layer's public
// functions from outside. See README.md in this directory for the
// definitions and BENCHMARK.json at the repository root for the
// contract the driver holds it to.
//
//	go run ./bench -workload edge_mem -seed 1 -seconds 18 -trace 0
//	go run ./bench -repeat 5        # noise self-check over all workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// gate is one end-to-end metric: what a user of the serving tier sees,
// and the share of the parent's median by which it may get worse.
type gate struct {
	name   string
	unit   string
	better string
	bound  float64
	// what is printed beside the value.
	what string
}

// endToEnd is the gated metric set, identical for every workload.
// BENCHMARK.json carries the same table (bench_test.go compares them).
var endToEnd = []gate{
	{"setup_s", "s", "lower", 0.25, "median set-up: generate inputs, build and start the server, dial, warm-up slots"},
	{"ingest_krps", "kreq/s", "higher", 0.25, "connections x median block rate of POST /ingest (redirects interleaved)"},
	{"ingest_p50_us", "us", "lower", 0.25, "median POST /ingest round trip"},
	{"redirect_p50_us", "us", "lower", 0.25, "median GET /redirect round trip under concurrent ingest"},
	{"fresh_ms", "ms", "lower", 0.25, "median AdvanceSlot call -> every frontend serves the new epoch"},
	{"restart_ms", "ms", "lower", 0.25, "median server.New on a crashed WAL directory -> first /redirect with the durable digest"},
	{"sim_slot_ms", "ms", "lower", 0.25, "median per-slot time of the offline sim.Run reference"},
	{"rss_mb", "MB", "lower", 0.10, "median resident set (VmRSS) at the slot boundaries, harness included"},
}

// stderr receives diagnostics; stdout carries the report and, as its
// last line, the result object.
var stderr io.Writer = os.Stderr

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, processStart))
}

// mainExit parses the arguments, runs, and returns the exit code: 0
// only if every check passed and the metrics were printed. start is
// when the run began: the first set-up is timed from it.
func mainExit(args []string, stdout io.Writer, start time.Time) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "edge_mem, edge_wal or city_sched; empty runs all three, each in its own process")
	seed := fs.Int64("seed", 1, "seed of the generated inputs; claims must also hold on -seed 2")
	seconds := fs.Float64("seconds", 18, "length of the measured serving phase (whole slots; every trace slot is served at least once)")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	scaleName := fs.String("scale", "full", "full, or smoke for go test")
	repeat := fs.Int("repeat", 1, "noise self-check: run each workload this many times and fail if any metric's spread exceeds its bound")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for WAL files (a fresh subdirectory per run, removed afterwards)")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
	inject := fs.String("inject", "", "self-test: drop-request or corrupt-reference must make the run fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	sc, err := findScale(*scaleName)
	if err != nil {
		return fail(err)
	}
	switch {
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case *traced != 0 && *traced != 1:
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	case *seconds < 0 || *repeat < 1:
		return fail(fmt.Errorf("-seconds must not be negative and -repeat at least 1"))
	case *inject != "" && *inject != "drop-request" && *inject != "corrupt-reference":
		return fail(fmt.Errorf("-inject %q: want drop-request or corrupt-reference", *inject))
	}
	if *name == "" || *repeat > 1 {
		names := []string{*name}
		if *name == "" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		pass := []string{
			"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*traced),
			"-scale", *scaleName, "-workdir", *workDir,
		}
		if err := runAll(names, *repeat, *seed, pass, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	o := options{
		start: start, workload: w.sized(sc), scale: sc, seed: *seed, seconds: *seconds, trace: *traced == 1,
		workDir: *workDir, spans: *spans, inject: *inject,
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	}
	steal := stealTicks()
	res, err := run(o)
	if err != nil {
		// An output was wrong: no metric is printed.
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	steal = stealTicks() - steal
	if err := report(stdout, o, res, steal); err != nil {
		return fail(err)
	}
	return 0
}

// endToEndMetrics reduces a run's samples to the gated metrics. Every
// one is a median: of set-ups, of blocks, of round trips, of slots, of
// restart cycles.
func endToEndMetrics(res *result) []metric {
	sm := res.sm
	ingest, redirect := sortedCopy32(sm.ingestUS), sortedCopy32(sm.redirectUS)
	return []metric{
		{"setup_s", "s", median(res.setupS), len(res.setupS)},
		{"ingest_krps", "kreq/s", connections * median(sm.blockKrps), len(sm.blockKrps)},
		{"ingest_p50_us", "us", quantile32(ingest, 0.5), len(ingest)},
		{"redirect_p50_us", "us", quantile32(redirect, 0.5), len(redirect)},
		{"fresh_ms", "ms", median(sm.freshMS), len(sm.freshMS)},
		{"restart_ms", "ms", median(res.restartMS), len(res.restartMS)},
		{"sim_slot_ms", "ms", median(res.ref.slotMS), len(res.ref.slotMS)},
		{"rss_mb", "MB", median(sm.rssMB), len(sm.rssMB)},
	}
}

// report prints the run: what it was, where it ran, every metric by
// name and unit with its sample count, and last the result object.
func report(w io.Writer, o options, res *result, steal int64) error {
	metrics := res.layers
	if !o.trace {
		metrics = endToEndMetrics(res)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", o.workload.name, m.name, m.value)
		}
	}
	what := map[string]string{}
	for _, g := range endToEnd {
		what[g.name] = g.what
	}
	fmt.Fprintf(w, "workload %s: %s\n", o.workload.name, o.workload.why)
	fmt.Fprintf(w, "env: %s\n", envStamp(o, steal))
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-28s %14.4f %-7s n=%-7d %s\n", m.name, m.value, m.unit, m.n, what[m.name])
	}
	if o.trace {
		metrics = append(metrics, metric{"bench.steal_ticks", "ticks", float64(steal), 0})
		fmt.Fprintf(w, "  %-28s %14d %-7s\n", "bench.steal_ticks", steal, "ticks")
		fmt.Fprintf(w, "spans: %s\n", o.spans)
	}
	fmt.Fprintf(w, "ops: %d failed of %d attempted over %d measured slots\n", res.sm.failed, res.sm.attempted, res.sm.slots)
	fmt.Fprintf(w, "plans: fingerprint %s (%d trace slots, every served slot byte-identical to sim.Run)\n", res.fingerprint, len(res.ref.plans))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.sm.attempted, Failed: res.sm.failed, Metrics: make(map[string]value, len(metrics))}
	for _, m := range metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
