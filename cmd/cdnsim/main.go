// Command cdnsim runs one trace-driven simulation of a crowdsourced
// CDN under a chosen scheduling policy and prints the paper's
// evaluation metrics.
//
// Usage:
//
//	cdnsim [flags]
//
//	-scenario FILE             run a declarative scenario (YAML): timed
//	                           fault events, seeded stress generation,
//	                           and assertions; exits non-zero when any
//	                           assertion fails (see DESIGN.md §13)
//	-world FILE -trace FILE    input files (from cdntrace); when absent
//	                           a fresh eval-scale world is generated
//	-scheme rbcaer|nearest|random|lp|hier|p2c
//	-radius KM                 Random/p2c routing radius (default 1.5)
//	-churn P                   per-slot hotspot offline probability in
//	                           [0, 1], i.i.d. across slots and hotspots
//	                           (Markov churn with fail P, recover 1-P)
//	-capacity F -cache F       override capacities as fractions of the
//	                           video-set size (0 keeps the input)
//	-seed N                    simulation/generation seed
//	-workers N                 scheduling parallelism: 0 uses every core,
//	                           1 forces serial; results are identical
//	-json                      emit metrics as JSON instead of text
//	-debug-addr ADDR           serve net/http/pprof, expvar, and live
//	                           metrics/events on ADDR during the run
//	-metrics-out FILE          write a metrics-registry snapshot (JSON)
//	-events-out FILE           write round/slot trace events (JSONL)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	crowdcdn "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "cdnsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdnsim", flag.ContinueOnError)
	scenarioPath := fs.String("scenario", "", "scenario YAML file: run it and report assertion pass/fail")
	worldPath := fs.String("world", "", "world JSON file (default: generate eval world)")
	tracePath := fs.String("trace", "", "requests CSV file (default: generate eval trace)")
	schemeName := fs.String("scheme", "rbcaer", "scheduling policy: "+strings.Join(crowdcdn.SchemeNames(), ", "))
	radius := fs.Float64("radius", 1.5, "Random scheme routing radius in km")
	capFrac := fs.Float64("capacity", 0, "override service capacity as a fraction of the video set")
	cacheFrac := fs.Float64("cache", 0, "override cache size as a fraction of the video set")
	seed := fs.Int64("seed", 1, "simulation (and generation) seed")
	workers := fs.Int("workers", 0, "scheduling parallelism (0 = all cores, 1 = serial; results identical)")
	churn := fs.Float64("churn", 0, "per-slot probability in [0, 1] a hotspot is offline, i.i.d.")
	shardCellKm := fs.Float64("shard-cell-km", 0, "rbcaer only: grid-partition the world into shards of this cell size in km")
	asJSON := fs.Bool("json", false, "emit metrics as JSON")
	debugAddr := fs.String("debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. localhost:6060)")
	metricsOut := fs.String("metrics-out", "", "write a metrics-registry snapshot (JSON) to this file")
	eventsOut := fs.String("events-out", "", "write round/slot trace events (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: must be non-negative (0 uses every core)", *workers)
	}

	if *scenarioPath != "" {
		if *worldPath != "" || *tracePath != "" {
			return fmt.Errorf("-scenario carries its own world; drop -world/-trace")
		}
		return runScenario(*scenarioPath, *workers)
	}
	if !(*capFrac >= 0) || !(*cacheFrac >= 0) {
		return fmt.Errorf("-capacity %v / -cache %v: must be non-negative (0 keeps the world's)", *capFrac, *cacheFrac)
	}

	// Observability backends are allocated only when asked for, so the
	// default path stays instrumentation-free.
	var reg *crowdcdn.MetricsRegistry
	var tracer *crowdcdn.RoundTracer
	if *metricsOut != "" || *debugAddr != "" {
		reg = crowdcdn.NewMetricsRegistry()
	}
	if *eventsOut != "" || *debugAddr != "" {
		tracer = crowdcdn.NewRoundTracer(1<<16, false)
	}
	if *debugAddr != "" {
		_, addr, err := crowdcdn.ServeDebug(*debugAddr, reg, tracer)
		if err != nil {
			return fmt.Errorf("starting debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cdnsim: debug server on http://%s/debug/metrics\n", addr)
	}

	if *shardCellKm < 0 {
		return fmt.Errorf("-shard-cell-km must be non-negative (got %v)", *shardCellKm)
	}
	if *shardCellKm > 0 && *schemeName != "rbcaer" {
		return fmt.Errorf("-shard-cell-km requires -scheme rbcaer (got %q)", *schemeName)
	}

	params := crowdcdn.DefaultParams()
	params.Obs = reg
	params.RecordEvents = tracer != nil
	sp := crowdcdn.ShardParams{CellKm: *shardCellKm}
	policy, err := crowdcdn.LookupScheme(*schemeName, *radius, params, sp, *workers)
	if err != nil {
		return err
	}

	world, tr, err := crowdcdn.LoadFiles(*worldPath, *tracePath)
	if err != nil {
		return err
	}
	if world == nil {
		cfg := crowdcdn.DefaultTraceConfig()
		cfg.Seed = *seed
		if world, tr, err = crowdcdn.Generate(cfg); err != nil {
			return err
		}
	}
	world.OverrideCapacities(*capFrac, *cacheFrac)
	opts := crowdcdn.SimOptions{Seed: *seed, Registry: reg, Tracer: tracer}
	if *churn != 0 {
		opts.Faults = &crowdcdn.FaultScenario{Churn: &crowdcdn.MarkovChurn{FailPerSlot: *churn, RecoverPerSlot: 1 - *churn}}
	}
	m, err := policy.Run(world, tr, *workers, opts)
	if err != nil {
		return err
	}

	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut, reg); err != nil {
			return err
		}
	}
	if *eventsOut != "" {
		if err := writeEvents(*eventsOut, tracer); err != nil {
			return err
		}
	}

	if *asJSON {
		// The per-hotspot arrays are bulky; emit the headline metrics.
		out := map[string]interface{}{
			"scheme":                 m.Scheme,
			"total_requests":         m.TotalRequests,
			"served_by_hotspot":      m.ServedByHotspot,
			"served_by_cdn":          m.ServedByCDN,
			"hotspot_serving_ratio":  m.HotspotServingRatio,
			"avg_access_distance_km": m.AvgAccessDistanceKm,
			"replicas":               m.Replicas,
			"replication_cost":       m.ReplicationCost,
			"cdn_server_load":        m.CDNServerLoad,
			"scheduling_seconds":     m.SchedulingTime.Seconds(),
			"wall_seconds":           m.WallTime.Seconds(),
		}
		if m.Phases.Total() > 0 {
			out["phase_cluster_seconds"] = m.Phases.Cluster.Seconds()
			out["phase_balance_seconds"] = m.Phases.Balance.Seconds()
			out["phase_replicate_seconds"] = m.Phases.Replicate.Seconds()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("scheme:                %s\n", m.Scheme)
	fmt.Printf("requests:              %d (%d hotspot-served, %d CDN-served)\n",
		m.TotalRequests, m.ServedByHotspot, m.ServedByCDN)
	fmt.Printf("hotspot serving ratio: %.4f\n", m.HotspotServingRatio)
	fmt.Printf("avg access distance:   %.3f km\n", m.AvgAccessDistanceKm)
	fmt.Printf("replication cost:      %.3f x video set (%d replicas)\n", m.ReplicationCost, m.Replicas)
	fmt.Printf("CDN server load:       %.4f of original workload\n", m.CDNServerLoad)
	fmt.Printf("scheduling time:       %v (wall %v)\n", m.SchedulingTime, m.WallTime)
	if m.Phases.Total() > 0 {
		fmt.Printf("phase times:           cluster %v, balance %v, replicate %v\n",
			m.Phases.Cluster, m.Phases.Balance, m.Phases.Replicate)
	}
	return nil
}

// runScenario loads, executes, and reports a declarative scenario. A
// violated assertion is an error (non-zero exit) after the full report
// has been printed.
func runScenario(path string, workers int) error {
	doc, err := crowdcdn.LoadScenario(path)
	if err != nil {
		return err
	}
	rep, err := doc.Execute(crowdcdn.ScenarioOptions{Workers: workers})
	if err != nil {
		return err
	}
	rep.WriteText(os.Stdout)
	if !rep.Pass {
		return fmt.Errorf("scenario %s: assertions failed", doc.Name)
	}
	return nil
}

func writeMetricsSnapshot(path string, reg *crowdcdn.MetricsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Snapshot(true).WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func writeEvents(path string, tracer *crowdcdn.RoundTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
