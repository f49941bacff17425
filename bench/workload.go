package main

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark runs. All three share one
// run shape (see run.go); they differ in fleet size and serving-tier
// configuration, so that each loads a different layer.
type workload struct {
	name string
	why  string

	// fleet multiplies the paper's Sec. V deployment (310 hotspots on a
	// 17x11 km region, 14 demand regions, 30,000 users): hotspots,
	// regions, users and area scale with it, the 15,190-video
	// catalogue does not.
	fleet int
	// slotRequests is the demand of one timeslot.
	slotRequests int
	// traceSlots is the number of distinct slots generated; the
	// serving phase cycles through them for as long as it measures.
	traceSlots int
	// instances is the number of in-process frontends; connection i
	// talks to frontend i mod instances.
	instances int
	// durable puts a WAL (fsync "interval", 1 s) under the server.
	durable bool
}

var workloads = []workload{
	{
		name: "edge_mem", fleet: 1, slotRequests: 25000, traceSlots: 16, instances: 1,
		why: "paper-scale fleet, no WAL: internal/server does almost all the work (HTTP, JSON decode, geo resolve, stripe accumulate, redirect lookup); bypasses WAL, light on the scheduler",
	},
	{
		name: "edge_wal", fleet: 1, slotRequests: 25000, traceSlots: 16, instances: 2, durable: true,
		why: "same seed and trace as edge_mem plus a WAL and 2 ring-sharded frontends: the difference to edge_mem is internal/wal, ring forwarding and the 2x verified plan fan-out",
	},
	{
		name: "city_sched", fleet: 4, slotRequests: 50000, traceSlots: 10, instances: 1,
		why: "4x fleet (1,240 hotspots): internal/core's cluster/similarity/mcmf/replicate round and the 4x plan's encode and verify block every slot; the ingest path is the same code as edge_mem",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want edge_mem, edge_wal or city_sched)", name)
}

// scale sizes a run. The full scale is what BENCHMARK.json gates; the
// smoke scale keeps the same code path small enough for go test.
type scale struct {
	name string
	// slotRequests and traceSlots, when non-zero, override the
	// workload's, and maxFleet caps its fleet.
	slotRequests int
	traceSlots   int
	maxFleet     int
	// warmSlots are served, unmeasured, at the end of every set-up.
	warmSlots int
	// blockIngests is the size of one throughput sample: the wall time
	// of that many consecutive ingests (and the redirects between them)
	// on one connection — 2,500, about 0.1 s, at full scale.
	blockIngests int
	// setups is how many times a run sets up (setup_s is the median).
	setups int
	// drillCycles is the size of one group of timed kill/restart
	// cycles; a group runs before and after every pass of the offline
	// reference, and passes repeat until they have taken referenceS
	// seconds.
	drillCycles int
	referenceS  float64
	// reps caps the repetitions behind each per-layer median, and
	// repBudget the time one per-layer metric may take: at least
	// minReps run whatever they cost.
	reps      int
	minReps   int
	repBudget time.Duration
	// echoRequests is the number of round trips against the empty
	// handler that gives the socket floor.
	echoRequests int
}

var scales = []scale{
	{name: "full", blockIngests: 2500, warmSlots: 2, setups: 3, drillCycles: 6, referenceS: 6, reps: 20, minReps: 5, repBudget: 1500 * time.Millisecond, echoRequests: 20000},
	{name: "smoke", slotRequests: 2000, traceSlots: 2, maxFleet: 2, blockIngests: 250, warmSlots: 1, setups: 1, drillCycles: 2, reps: 2, minReps: 1, repBudget: 20 * time.Millisecond, echoRequests: 500},
}

func findScale(name string) (scale, error) {
	for _, s := range scales {
		if s.name == name {
			return s, nil
		}
	}
	return scale{}, fmt.Errorf("unknown scale %q (want full or smoke)", name)
}

// sized returns the workload with the scale's overrides applied.
func (w workload) sized(sc scale) workload {
	if sc.slotRequests > 0 {
		w.slotRequests = sc.slotRequests
	}
	if sc.traceSlots > 0 {
		w.traceSlots = sc.traceSlots
	}
	if sc.maxFleet > 0 {
		w.fleet = min(w.fleet, sc.maxFleet)
	}
	return w
}

// The paper's Sec. V load: 212,472 requests against 310 hotspots of
// service capacity 760, cache 450.
const (
	paperLoad         = 212472.0 / (310 * 760)
	paperCachePerUnit = 450.0 / 760
)

// traceConfig is the generator configuration for the workload: the
// paper's deployment scaled by fleet, uniform slots (SlotNoise 1, so
// every slot carries the same load), and per-hotspot capacities chosen
// so that one slot's offered load is the paper's 0.90 of the fleet's
// service capacity, with the paper's cache-to-service ratio.
func (w workload) traceConfig(seed int64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	side := 1.0
	for side*side < float64(w.fleet) {
		side++
	}
	cfg.Bounds = geo.Rect{MaxX: cfg.Bounds.MaxX * side, MaxY: cfg.Bounds.MaxY * side}
	cfg.NumHotspots *= w.fleet
	cfg.NumRegions *= w.fleet
	cfg.NumUsers *= w.fleet
	cfg.Slots = w.traceSlots
	cfg.NumRequests = w.traceSlots * w.slotRequests
	cfg.SlotNoise = 1
	perHotspot := float64(w.slotRequests) / (paperLoad * float64(cfg.NumHotspots))
	cfg.ServiceCapacityFrac = perHotspot / float64(cfg.NumVideos)
	cfg.CacheCapacityFrac = cfg.ServiceCapacityFrac * paperCachePerUnit
	return cfg
}

// serverConfig is the serving tier under test. QueueBound and
// PlanHistory sit above anything a run reaches: a 429 or an evicted
// plan record would be a failure of the harness, not of the server.
func (w workload) serverConfig(world *trace.World, reg *obs.Registry, walDir string) server.Config {
	cfg := server.Config{
		World:       world,
		Instances:   w.instances,
		QueueBound:  1 << 30,
		PlanHistory: 1 << 20,
		Registry:    reg,
	}
	if walDir != "" {
		cfg.WALDir = walDir
		cfg.Fsync = walFsync
		cfg.FsyncInterval = walFsyncInterval
		cfg.CheckpointEvery = walCheckpointEvery
	}
	return cfg
}

// The durable workload's WAL policy. The 1 s interval keeps the flusher
// in the path but confines the device's fsync stalls to the ungated
// tail percentiles, so the sandbox's disk does not set a gated number.
const (
	walFsync           = "interval"
	walFsyncInterval   = time.Second
	walCheckpointEvery = 8
)
