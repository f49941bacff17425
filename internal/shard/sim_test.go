package shard_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// faultScenario is the rotating fault timeline the determinism test
// runs under: churn plus an outage window plus a capacity degradation.
func faultScenario() *fault.Scenario {
	return &fault.Scenario{
		Name:  "shard-rotating",
		Churn: &fault.MarkovChurn{FailPerSlot: 0.15, RecoverPerSlot: 0.5},
		Outages: []fault.RegionalOutage{
			{Center: geo.Point{X: 8, Y: 5}, RadiusKm: 3, StartSlot: 1, EndSlot: 3},
		},
		Degradations: []fault.CapacityDegradation{
			{StartSlot: 2, EndSlot: 4, Fraction: 0.4, ServiceFactor: 0.5, CacheFactor: 0.7},
		},
	}
}

// TestShardedDeterministicUnderFaults drives the sharded policy through
// the simulator under a rotating fault timeline and requires per-slot
// plans byte-identical across sim worker counts and shard worker
// counts. Run under -race this also certifies the concurrent fan-out.
// It lives in the external test package because the simulator policy
// (scheme.NewSharded) imports this one.
func TestShardedDeterministicUnderFaults(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumHotspots, cfg.NumVideos, cfg.NumUsers, cfg.NumRequests, cfg.Slots = 60, 1500, 3000, 9000, 4
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	local := core.DefaultParams()
	local.Workers = 1

	collect := func(simWorkers, shardWorkers int) map[int][]byte {
		var mu sync.Mutex
		plans := make(map[int][]byte)
		opts := sim.Options{
			Seed:   7,
			Faults: faultScenario(),
			PlanSink: func(slot int, plan *core.Plan) {
				mu.Lock()
				plans[slot] = plan.Canonical()
				mu.Unlock()
			},
		}
		newPolicy := func() sim.Scheduler {
			return scheme.NewSharded(shard.Params{CellKm: 4, Workers: shardWorkers, Local: local})
		}
		if _, err := sim.RunParallel(world, tr, newPolicy, simWorkers, opts); err != nil {
			t.Fatalf("sim run (simWorkers=%d shardWorkers=%d): %v", simWorkers, shardWorkers, err)
		}
		return plans
	}

	ref := collect(1, 1)
	if len(ref) == 0 {
		t.Fatal("no plans collected")
	}
	for _, cfg := range [][2]int{{1, 4}, {1, 8}, {4, 4}, {8, 8}} {
		got := collect(cfg[0], cfg[1])
		if len(got) != len(ref) {
			t.Fatalf("config %v: %d plans, reference has %d", cfg, len(got), len(ref))
		}
		for slot, b := range ref {
			if !bytes.Equal(got[slot], b) {
				t.Fatalf("config %v slot %d: plan bytes differ from reference", cfg, slot)
			}
		}
	}
}
