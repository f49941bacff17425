package scheme

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestPowerOfTwoValidAndBalanced(t *testing.T) {
	ctx, world, tr := buildContext(t, nil)
	policy := PowerOfTwo{RadiusKm: 1.5}
	asg, err := policy.Schedule(ctx)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for r, target := range asg.Target {
		if target == sim.CDN {
			continue
		}
		if !asg.Placement[target].Contains(int(ctx.Requests[r].Video)) {
			t.Fatalf("request %d routed to non-holder %d", r, target)
		}
	}
	if policy.Name() != "PowerOfTwo(1.5km)" {
		t.Errorf("Name() = %q", policy.Name())
	}

	// Full run: feasible, and better load spread than single-choice
	// Random (its defining property).
	p2, err := sim.Run(world, tr, policy, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Infeasible != 0 {
		t.Errorf("PowerOfTwo produced %d infeasible targets", p2.Infeasible)
	}
	rnd, err := sim.Run(world, tr, Random{RadiusKm: 1.5}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p2.HotspotServingRatio < rnd.HotspotServingRatio-0.03 {
		t.Errorf("PowerOfTwo serving %.3f clearly below Random %.3f",
			p2.HotspotServingRatio, rnd.HotspotServingRatio)
	}
}

func TestPowerOfTwoErrors(t *testing.T) {
	if _, err := (PowerOfTwo{RadiusKm: 1}).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
	ctx, _, _ := buildContext(t, nil)
	if _, err := (PowerOfTwo{}).Schedule(ctx); err == nil {
		t.Error("Schedule with zero radius succeeded")
	}
}

func TestReactiveLRUAcrossSlots(t *testing.T) {
	_, world, tr := buildContext(t, func(c *trace.Config) {
		c.Slots = 6
		c.NumRequests = 6000
	})
	policy := NewReactiveLRU()
	m, err := sim.Run(world, tr, policy, sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Infeasible != 0 {
		t.Errorf("reactive produced %d infeasible targets", m.Infeasible)
	}
	if m.HotspotServingRatio <= 0 {
		t.Error("reactive never served anything from the edge")
	}
	// Reactive fetches at least one replica per distinct (hotspot,
	// video) it ever serves — replication accounting must be positive.
	if m.Replicas <= 0 {
		t.Error("reactive reported no replicas")
	}
	if policy.Name() != "Reactive(lru)" {
		t.Errorf("Name() = %q", policy.Name())
	}
}

func TestReactiveLFUAndProactiveComparison(t *testing.T) {
	_, world, tr := buildContext(t, func(c *trace.Config) {
		c.Slots = 6
		c.NumRequests = 6000
	})
	reactive, err := sim.Run(world, tr, NewReactiveLFU(), sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	proactive, err := sim.Run(world, tr, NewRBCAer(core.DefaultParams()), sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's proactive push-and-balance should beat an unmanaged
	// reactive edge on serving ratio.
	if proactive.HotspotServingRatio <= reactive.HotspotServingRatio {
		t.Errorf("RBCAer serving %.3f not above reactive %.3f",
			proactive.HotspotServingRatio, reactive.HotspotServingRatio)
	}
}

func TestReactiveNilContext(t *testing.T) {
	if _, err := NewReactiveLRU().Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
}

// iidChurn is i.i.d. churn at probability p as the Markov chain that
// draws it: offline with probability p whatever the slot before was.
func iidChurn(p float64) *fault.MarkovChurn {
	return &fault.MarkovChurn{FailPerSlot: p, RecoverPerSlot: 1 - p}
}

func TestChurnDegradesServingGracefully(t *testing.T) {
	_, world, tr := buildContext(t, nil)
	baseline, err := sim.Run(world, tr, NewRBCAer(core.DefaultParams()), sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := sim.Run(world, tr, NewRBCAer(core.DefaultParams()),
		sim.Options{Seed: 1, Faults: &fault.Scenario{Churn: iidChurn(0.3)}})
	if err != nil {
		t.Fatal(err)
	}
	if churned.OfflineHotspotSlots == 0 {
		t.Fatal("churn configured but no hotspot went offline")
	}
	if churned.Infeasible != 0 {
		t.Errorf("churned run produced %d infeasible targets (policies see only online hotspots)",
			churned.Infeasible)
	}
	if churned.HotspotServingRatio >= baseline.HotspotServingRatio {
		t.Errorf("30%% churn did not reduce serving: %.3f vs %.3f",
			churned.HotspotServingRatio, baseline.HotspotServingRatio)
	}
	// Even at heavy churn most requests should still find edge service
	// by re-aggregating to online hotspots.
	if churned.HotspotServingRatio < 0.3*baseline.HotspotServingRatio {
		t.Errorf("churned serving %.3f collapsed vs %.3f", churned.HotspotServingRatio,
			baseline.HotspotServingRatio)
	}
}

func TestChurnOptionValidation(t *testing.T) {
	_, world, tr := buildContext(t, nil)
	churn := func(p float64) sim.Options { return sim.Options{Faults: &fault.Scenario{Churn: iidChurn(p)}} }
	if _, err := sim.Run(world, tr, Nearest{}, churn(-0.1)); err == nil {
		t.Error("negative churn accepted")
	}
	if _, err := sim.Run(world, tr, Nearest{}, churn(1.1)); err == nil {
		t.Error("churn above 1 accepted")
	}
	// Churn of exactly 1 is valid: the whole fleet is offline every
	// slot and everything is served by the CDN.
	m, err := sim.Run(world, tr, Nearest{}, churn(1.0))
	if err != nil {
		t.Fatalf("churn of 1.0 rejected: %v", err)
	}
	if m.ServedByHotspot != 0 || m.ServedByCDN != m.TotalRequests {
		t.Errorf("churn 1.0: served %d by hotspot, %d/%d by CDN",
			m.ServedByHotspot, m.ServedByCDN, m.TotalRequests)
	}
}
