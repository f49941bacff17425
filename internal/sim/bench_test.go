package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchShaped generates a world and trace shaped like the serving
// benchmark's workloads: the paper's deployment scaled by fleet on a
// side×side larger plane, uniform slots of slotRequests requests, and
// capacities that put one slot's offered load at the paper's 0.90 of
// the fleet's service capacity.
func benchShaped(tb testing.TB, fleet, slotRequests, slots int) (*trace.World, *trace.Trace) {
	tb.Helper()
	const paperLoad = 212472.0 / (310 * 760)
	cfg := trace.DefaultConfig()
	cfg.Seed = 1
	side := 1.0
	for side*side < float64(fleet) {
		side++
	}
	cfg.Bounds = geo.Rect{MaxX: cfg.Bounds.MaxX * side, MaxY: cfg.Bounds.MaxY * side}
	cfg.NumHotspots *= fleet
	cfg.NumRegions *= fleet
	cfg.NumUsers *= fleet
	cfg.Slots = slots
	cfg.NumRequests = slots * slotRequests
	cfg.SlotNoise = 1
	perHotspot := float64(slotRequests) / (paperLoad * float64(cfg.NumHotspots))
	cfg.ServiceCapacityFrac = perHotspot / float64(cfg.NumVideos)
	cfg.CacheCapacityFrac = cfg.ServiceCapacityFrac * 450.0 / 760
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return world, tr
}

// BenchmarkGridNearest times one nearest-hotspot lookup, the simulator's
// and the ingest path's aggregation step, over a trace slot's request
// locations on bench-shaped worlds of 310 and 1,240 hotspots.
func BenchmarkGridNearest(b *testing.B) {
	for _, bc := range []struct{ fleet, requests int }{{1, 25000}, {4, 50000}} {
		world, tr := benchShaped(b, bc.fleet, bc.requests, 1)
		b.Run(fmt.Sprintf("hotspots=%d", len(world.Hotspots)), func(b *testing.B) {
			index, err := world.Index()
			if err != nil {
				b.Fatal(err)
			}
			reqs := tr.Requests
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := index.Nearest(reqs[i%len(reqs)].Location); !ok {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// BenchmarkSimSlot times the simulator under RBCAer over bench-shaped
// traces, reported per slot: aggregation, the round, the plan's
// materialisation and the slot's evaluation, the path the serving
// benchmark's sim_slot_ms measures. The cases are one instance (which
// is sim.Run) at 310 hotspots (edge_*) and 1,240 (city_sched), and two
// instances at 310.
func BenchmarkSimSlot(b *testing.B) {
	for _, bc := range []struct{ fleet, requests, workers int }{{1, 25000, 1}, {4, 50000, 1}, {1, 25000, 2}} {
		world, tr := benchShaped(b, bc.fleet, bc.requests, 4)
		name := fmt.Sprintf("hotspots=%d", len(world.Hotspots))
		if bc.workers > 1 {
			name += fmt.Sprintf("/workers=%d", bc.workers)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newPolicy := func() sim.Scheduler { return scheme.NewRBCAer(core.DefaultParams()) }
				m, err := sim.RunParallel(world, tr, newPolicy, bc.workers, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if m.TotalRequests != int64(len(tr.Requests)) {
					b.Fatalf("served %d of %d requests", m.TotalRequests, len(tr.Requests))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Slots), "ns/slot")
		})
	}
}

// TestIndexTableBuildTime bounds the hotspot index's build, candidate
// table included, which the serving tier pays inside server.New: at
// 1,240 bench-shaped hotspots the best of 50 builds must take at most
// 2 ms. It reads about 1 ms on a 2-vCPU Xeon VM, against ≈ 0.1 ms for
// the grid alone and 54 ms for the table's naive O(cells × points)
// build.
func TestIndexTableBuildTime(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	world, _ := benchShaped(t, 4, 1000, 1)
	best := time.Duration(1 << 62)
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := world.Index(); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	t.Logf("index with candidate table over %d hotspots: best of 50 builds %v", len(world.Hotspots), best)
	// The race detector and coverage counters slow the build; the bound
	// holds for plain builds.
	if limit := 2 * time.Millisecond; best > limit && !raceEnabled && testing.CoverMode() == "" {
		t.Errorf("index build took %v, want <= %v", best, limit)
	}
}
