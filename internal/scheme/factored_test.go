package scheme

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFactoredPredictedMetricsPinned pins a 48-slot factored run (two
// days of hourly slots, so the seasonal forecast reaches past a full
// period) to its recorded metrics, exactly: the per-hotspot totals
// forecast is the seasonal-naive one the direct per-key forecasters
// were compared against, and these are the figures of that comparison's
// world.
func TestFactoredPredictedMetricsPinned(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = 40
	cfg.NumVideos = 1500
	cfg.NumUsers = 3000
	cfg.NumRequests = 40000
	cfg.NumRegions = 6
	cfg.Slots = 48
	cfg.ServiceCapacityFrac *= 0.6
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := sim.Run(world, tr,
		NewFactoredPredicted(NewRBCAer(core.DefaultParams())), sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(factored): %v", err)
	}
	if m.Infeasible != 0 {
		t.Errorf("factored produced %d infeasible targets", m.Infeasible)
	}
	if m.HotspotServingRatio != 0.528475 || m.ReplicationCost != 6.264666666666667 || m.CDNServerLoad != 0.70645 {
		t.Errorf("serving %v, replication %v, CDN load %v; want 0.528475, 6.264666666666667, 0.70645",
			m.HotspotServingRatio, m.ReplicationCost, m.CDNServerLoad)
	}
}

// TestForecastTotals walks the totals forecast through its three
// regimes: nothing on the cold start (the oracle schedules), the last
// slot's totals before a full period is held, then the totals one
// period back.
func TestForecastTotals(t *testing.T) {
	p := &FactoredPredicted{}
	if got := p.forecastTotals(); got != nil {
		t.Fatalf("cold start forecast %v, want nil", got)
	}
	for slot := int64(0); slot < 2*seasonPeriod; slot++ {
		p.observeTotals([]int64{slot, 100 + slot})
		want := slot
		if slot+1 >= seasonPeriod {
			want = slot + 1 - seasonPeriod
		}
		if got := p.forecastTotals(); got[0] != want || got[1] != 100+want {
			t.Fatalf("after slot %d: forecast %v, want [%d %d]", slot, got, want, 100+want)
		}
	}
}

func TestFactoredPredictedValidation(t *testing.T) {
	if _, err := NewFactoredPredicted(NewRBCAer(core.DefaultParams())).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
	ctx, _, _ := buildContext(t, nil)
	if _, err := (&FactoredPredicted{}).Schedule(ctx); err == nil {
		t.Error("Schedule without inner succeeded")
	}
	name := NewFactoredPredicted(NewRBCAer(core.DefaultParams())).Name()
	if name != "RBCAer+factored(seasonal(24))" {
		t.Errorf("Name() = %q", name)
	}
}

func TestSpreadDemandConservesTotal(t *testing.T) {
	shares := map[trace.VideoID]float64{1: 5, 2: 3, 3: 2}
	d := core.NewDemand(1)
	spreadDemand(d, 0, 100, shares)
	if d.Totals[0] != 100 {
		t.Fatalf("spread total = %d, want 100", d.Totals[0])
	}
	// Proportional: video 1 gets half.
	if d.Count(0, 1) != 50 || d.Count(0, 2) != 30 || d.Count(0, 3) != 20 {
		t.Errorf("allocation = %v, want 50/30/20", d.VideoCounts(0))
	}
	// Largest-remainder handling with a non-divisible total.
	d2 := core.NewDemand(1)
	spreadDemand(d2, 0, 10, map[trace.VideoID]float64{1: 1, 2: 1, 3: 1})
	if d2.Totals[0] != 10 {
		t.Fatalf("spread total = %d, want 10", d2.Totals[0])
	}
	// Zero shares allocate nothing.
	d3 := core.NewDemand(1)
	spreadDemand(d3, 0, 10, map[trace.VideoID]float64{})
	if d3.Totals[0] != 0 {
		t.Errorf("empty shares allocated %d", d3.Totals[0])
	}
}

func TestFillOverprovisionPlacesMore(t *testing.T) {
	ctx, world, _ := buildContext(t, nil)
	base, err := core.New(world, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	over := core.DefaultParams()
	over.FillOverprovision = 5
	generous, err := core.New(world, over)
	if err != nil {
		t.Fatal(err)
	}
	basePlan, err := base.ScheduleRound(ctx.Demand, core.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	generousPlan, err := generous.ScheduleRound(ctx.Demand, core.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if generousPlan.Stats.Replicas < basePlan.Stats.Replicas {
		t.Errorf("overprovisioned fill placed fewer replicas: %d < %d",
			generousPlan.Stats.Replicas, basePlan.Stats.Replicas)
	}
	bad := core.DefaultParams()
	bad.FillOverprovision = -1
	if _, err := core.New(world, bad); err == nil {
		t.Error("negative FillOverprovision accepted")
	}
}
