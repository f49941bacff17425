package crowdcdn

// The observability overhead smoke test: a full simulation with the
// metrics registry and round tracing enabled must stay within a few
// percent of the uninstrumented run. Wall-clock comparisons are noisy
// on shared CI machines, so the test is opt-in via OBS_SMOKE=1 (CI
// runs it in a dedicated step), alternates the two variants to cancel
// machine drift, and compares medians with an absolute slack floor.

import (
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestObsOverheadSmoke(t *testing.T) {
	if os.Getenv("OBS_SMOKE") == "" {
		t.Skip("set OBS_SMOKE=1 to run the observability overhead smoke test")
	}
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = 60
	cfg.NumVideos = 3000
	cfg.NumUsers = 6000
	cfg.NumRequests = 24000
	cfg.NumRegions = 8
	cfg.Slots = 4
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	measure := func(enabled bool) time.Duration {
		params := core.DefaultParams()
		opts := sim.Options{Seed: 1}
		if enabled {
			params.Obs = obs.NewRegistry()
			params.RecordEvents = true
			opts.Registry = params.Obs
			opts.Tracer = obs.NewTracer(1<<16, true)
		}
		start := time.Now()
		if _, err := sim.Run(world, tr, scheme.NewRBCAer(params), opts); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// One warm-up pair, then alternating timed pairs.
	measure(false)
	measure(true)
	const rounds = 7
	var off, on []time.Duration
	for i := 0; i < rounds; i++ {
		off = append(off, measure(false))
		on = append(on, measure(true))
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2]
	}
	base, instrumented := median(off), median(on)

	// 5% relative budget with an absolute floor so sub-millisecond
	// jitter on tiny runs cannot fail the test.
	limit := base + base/20 + 25*time.Millisecond
	t.Logf("disabled median %v, enabled median %v, limit %v", base, instrumented, limit)
	if instrumented > limit {
		t.Errorf("observability overhead too high: enabled %v vs disabled %v (limit %v)",
			instrumented, base, limit)
	}
}
