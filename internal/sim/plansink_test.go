package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// planStubPolicy exposes a synthetic per-slot core.Plan on its
// assignments so the PlanSink plumbing can be tested without RBCAer
// (the scheme package cannot be imported here without a cycle; the
// real RBCAer plan flow is certified end to end in internal/server).
type planStubPolicy struct{}

func (planStubPolicy) Name() string { return "plan-stub" }

func (planStubPolicy) Schedule(ctx *SlotContext) (*Assignment, error) {
	m := len(ctx.World.Hotspots)
	placement := placeEverything(ctx)
	targets := make([]int, len(ctx.Requests))
	for r := range ctx.Requests {
		targets[r] = CDN
	}
	plan := &core.Plan{
		Placement:     placementOf(placement),
		OverflowToCDN: make([]int64, m),
		Flows:         []core.FlowEdge{{From: 0, To: 1, Amount: int64(ctx.Slot)}},
	}
	return &Assignment{Placement: placementOf(placement), Target: targets, Plan: plan}, nil
}

// TestPlanSinkSlotOrder locks in the PlanSink contract: plans arrive in
// ascending slot order, once per scheduled slot, with the identical
// (slot, canonical-bytes) sequence from Run and RunParallel at any
// worker count.
func TestPlanSinkSlotOrder(t *testing.T) {
	world := twoHotspotWorld()
	var reqs []trace.Request
	for slot := 0; slot < 6; slot++ {
		if slot == 3 {
			continue // empty slot: no plan must be emitted for it
		}
		rs := requestsAt([]trace.VideoID{1, 2}, 0, slot)
		for i := range rs {
			rs[i].ID = len(reqs) + i
		}
		reqs = append(reqs, rs...)
	}
	tr := &trace.Trace{Slots: 6, Requests: reqs}

	type rec struct {
		slot  int
		bytes string
	}
	capture := func() (*[]rec, Options) {
		var got []rec
		opts := Options{Seed: 2, PlanSink: func(slot int, plan *core.Plan) {
			got = append(got, rec{slot, string(plan.Canonical())})
		}}
		return &got, opts
	}

	seq, opts := capture()
	if _, err := Run(world, tr, planStubPolicy{}, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantSlots := []int{0, 1, 2, 4, 5}
	if len(*seq) != len(wantSlots) {
		t.Fatalf("Run delivered %d plans, want %d", len(*seq), len(wantSlots))
	}
	for i, r := range *seq {
		if r.slot != wantSlots[i] {
			t.Fatalf("Run plan %d for slot %d, want %d", i, r.slot, wantSlots[i])
		}
	}

	for _, workers := range []int{2, 4} {
		par, popts := capture()
		_, err := RunParallel(world, tr, func() Scheduler { return planStubPolicy{} }, workers, popts)
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		if len(*par) != len(*seq) {
			t.Fatalf("workers=%d delivered %d plans, want %d", workers, len(*par), len(*seq))
		}
		for i := range *seq {
			if (*par)[i] != (*seq)[i] {
				t.Fatalf("workers=%d plan %d diverged from sequential run", workers, i)
			}
		}
	}
}

// TestPlanSinkSkipsPlanlessPolicies checks plan-less assignments never
// reach the sink.
func TestPlanSinkSkipsPlanlessPolicies(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1}, 0, 0)}
	called := false
	policy := stubPolicy{name: "planless", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return &Assignment{
			Placement: placementOf(placeEverything(ctx)),
			Target:    []int{CDN},
		}, nil
	}}
	opts := Options{PlanSink: func(int, *core.Plan) { called = true }}
	if _, err := Run(world, tr, policy, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if called {
		t.Fatalf("PlanSink called for a plan-less assignment")
	}
}
