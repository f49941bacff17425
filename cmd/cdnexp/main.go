// Command cdnexp regenerates the data behind the paper's evaluation
// figures (Fig. 2, 3a, 3b, 5, 6a-d, 7a-d, 8, 9) as text tables.
//
// Usage:
//
//	cdnexp [flags] [experiment ...]
//
// With no arguments (or "all") every paper experiment runs in order;
// "ext" runs the extensions and ablations, "everything" both. cdnexp -h
// lists the experiment ids from internal/exp's table.
//
// Flags:
//
//	-world FILE -trace FILE  run the Sec. II measurement figures (fig2,
//	            fig3a, fig3b, the default ids then) on these files (from
//	            cdntrace) instead of the generated measurement world;
//	            any other experiment is refused
//	-seed N     seed (default 1)
//	-scale F    world scale in (0, 1]; 1 = paper scale (default 1)
//	-workers N  scheduling parallelism (0 = all cores, 1 = serial;
//	            results are identical for every value)
//	-csv DIR    also write each figure's data as CSV into DIR, plus a
//	            phase-timings.csv profiling each experiment's
//	            cluster/balance/replicate/simulate phases
//	-debug-addr ADDR  serve net/http/pprof, expvar, and live metrics on
//	            ADDR while the experiments run
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	crowdcdn "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cdnexp: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdnexp", flag.ContinueOnError)
	worldPath := fs.String("world", "", "world JSON file for fig2/fig3a/fig3b (default: generate the measurement world)")
	tracePath := fs.String("trace", "", "requests CSV file for fig2/fig3a/fig3b (default: generate the measurement trace)")
	seed := fs.Int64("seed", 1, "seed")
	scale := fs.Float64("scale", 1, "world scale in (0, 1]; 1 reproduces paper scale")
	workers := fs.Int("workers", 0, "scheduling parallelism (0 = all cores, 1 = serial; results identical)")
	csvDir := fs.String("csv", "", "also write each figure's data as CSV into this directory")
	debugAddr := fs.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. localhost:6060)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cdnexp [flags] [experiment ...]\n"+
			"  paper:      %s (or \"all\", the default)\n"+
			"  extensions: %s (or \"ext\")\n"+
			"  everything: \"everything\"\nflags:\n",
			strings.Join(crowdcdn.ExperimentIDs(), " "),
			strings.Join(crowdcdn.ExtensionExperimentIDs(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale %v outside (0, 1]", *scale)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: must be non-negative (0 uses every core)", *workers)
	}

	ids := fs.Args()
	switch {
	case len(ids) == 0, len(ids) == 1 && ids[0] == "all":
		ids = crowdcdn.ExperimentIDs()
	case len(ids) == 1 && ids[0] == "ext":
		ids = crowdcdn.ExtensionExperimentIDs()
	case len(ids) == 1 && ids[0] == "everything":
		ids = append(crowdcdn.ExperimentIDs(), crowdcdn.ExtensionExperimentIDs()...)
	}

	runner := crowdcdn.NewExperimentRunner(*seed, *scale)
	runner.Workers = *workers
	world, tr, err := crowdcdn.LoadFiles(*worldPath, *tracePath)
	if err != nil {
		return err
	}
	if world != nil {
		runner.UseMeasurementData(world, tr)
		measured := crowdcdn.MeasurementExperimentIDs()
		if fs.NArg() == 0 {
			ids = measured
		}
		for _, id := range ids {
			if !slices.Contains(measured, id) {
				return fmt.Errorf("experiment %q does not read -world/-trace (only %s do)", id, strings.Join(measured, ", "))
			}
		}
		if tr.Slots < 2 && slices.Contains(ids, "fig3a") {
			ids = slices.DeleteFunc(slices.Clone(ids), func(id string) bool { return id == "fig3a" })
			fmt.Fprintln(stdout, "(trace has a single slot; skipping workload correlation — regenerate with -slots 24)")
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("creating csv directory: %w", err)
		}
	}

	// One registry serves the whole run; per-experiment phase timings
	// are the deltas between successive snapshots.
	if *csvDir != "" || *debugAddr != "" {
		runner.Obs = crowdcdn.NewMetricsRegistry()
	}
	if *debugAddr != "" {
		runner.Tracer = crowdcdn.NewRoundTracer(1<<16, false)
		_, addr, err := crowdcdn.ServeDebug(*debugAddr, runner.Obs, runner.Tracer)
		if err != nil {
			return fmt.Errorf("starting debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cdnexp: debug server on http://%s/debug/metrics\n", addr)
	}

	var timings phaseTimings
	for _, id := range ids {
		figs, err := runner.Run(id)
		if err != nil {
			return err
		}
		timings.record(id, runner.Obs)
		for _, fig := range figs {
			if err := fig.Render(stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				if err := writeFigureCSV(*csvDir, fig); err != nil {
					return err
				}
			}
		}
	}
	if *csvDir != "" {
		if err := timings.writeCSV(filepath.Join(*csvDir, "phase-timings.csv")); err != nil {
			return err
		}
	}
	return nil
}

// phaseTimings accumulates per-experiment scheduling-phase profiles
// from the runner's registry: each experiment's row is the growth of
// the cluster/balance/replicate/simulate timers while it ran.
type phaseTimings struct {
	rows [][]string
	prev map[string]int64
}

var phaseTimerNames = []string{
	"core.phase.cluster",
	"core.phase.balance",
	"core.phase.replicate",
	"sim.phase.simulate",
}

func (p *phaseTimings) record(id string, reg *crowdcdn.MetricsRegistry) {
	if reg == nil {
		return
	}
	cur := make(map[string]int64)
	for _, tm := range reg.Snapshot(true).Timers {
		cur[tm.Name] = tm.TotalNs
	}
	row := []string{id}
	for _, name := range phaseTimerNames {
		row = append(row, fmt.Sprintf("%.6f", float64(cur[name]-p.prev[name])/1e9))
	}
	p.rows = append(p.rows, row)
	p.prev = cur
}

func (p *phaseTimings) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	w := csv.NewWriter(f)
	w.Write([]string{"experiment", "cluster_seconds", "balance_seconds", "replicate_seconds", "simulate_seconds"})
	for _, row := range p.rows {
		w.Write(row)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func writeFigureCSV(dir string, fig *crowdcdn.Figure) error {
	path := filepath.Join(dir, fig.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if err := fig.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
