package invariant

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shardCheckingPolicy wraps the sharded policy and runs every slot's
// merged plan through CheckPlan — against the slot's effective
// (fault-degraded) constraints — and the materialised assignment
// through CheckAssignment.
type shardCheckingPolicy struct {
	inner sim.Scheduler
	slots int
	errs  []error
}

func (c *shardCheckingPolicy) Name() string { return c.inner.Name() }

func (c *shardCheckingPolicy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	asg, err := c.inner.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	c.slots++
	cons := core.Constraints{Service: ctx.EffectiveCapacity(), Cache: ctx.EffectiveCacheCapacity()}
	if cerr := CheckPlan(ctx.World, ctx.Demand, cons, asg.Plan); cerr != nil {
		c.errs = append(c.errs, fmt.Errorf("slot %d: plan: %w", ctx.Slot, cerr))
	}
	if _, cerr := CheckAssignment(ctx, asg); cerr != nil {
		c.errs = append(c.errs, fmt.Errorf("slot %d: assignment: %w", ctx.Slot, cerr))
	}
	return asg, nil
}

// TestShardedPlanInvariants runs the sharded scheduler through the
// simulator for every partitioner × fault family and asserts each
// slot's merged plan and materialised assignment pass the full
// first-principles checks.
func TestShardedPlanInvariants(t *testing.T) {
	world, tr := genWorld(t, 3, nil)

	partitioners := map[string]shard.Params{
		"grid-4km": {CellKm: 4},
		"grid-2km": {CellKm: 2},
		"grid-6km": {CellKm: 6}, // six shards, the coarsest of the three
	}
	families := map[string]sim.Options{
		"clean": {Seed: 9},
		"churn": {Seed: 9, Faults: &fault.Scenario{
			Name:  "churn",
			Churn: &fault.MarkovChurn{FailPerSlot: 0.15, RecoverPerSlot: 0.5},
		}},
		"outage": {Seed: 9, Faults: &fault.Scenario{
			Name:    "outage",
			Outages: []fault.RegionalOutage{{Center: geo.Point{X: 8, Y: 5}, RadiusKm: 3, StartSlot: 1, EndSlot: 3}},
		}},
		"degradation": {Seed: 9, Faults: &fault.Scenario{
			Name: "degradation",
			Degradations: []fault.CapacityDegradation{
				{StartSlot: 0, EndSlot: 3, Fraction: 0.5, ServiceFactor: 0.4, CacheFactor: 0.6},
			},
		}},
		"flash-crowd": {Seed: 9, Faults: &fault.Scenario{
			Name:        "flash",
			FlashCrowds: []fault.FlashCrowd{{StartSlot: 1, EndSlot: 3, TopVideos: 3, Multiplier: 3}},
		}},
		"stale-reports": {Seed: 9, Faults: &fault.Scenario{
			Name:      "stale",
			Staleness: &fault.StaleReports{LagSlots: 1, DropFraction: 0.2},
		}},
	}

	for fname, opts := range families {
		for pname, params := range partitioners {
			t.Run(fname+"/"+pname, func(t *testing.T) {
				pol := &shardCheckingPolicy{inner: scheme.NewSharded(params)}
				if _, err := sim.Run(world, tr, pol, opts); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if pol.slots == 0 {
					t.Fatal("policy never scheduled a slot")
				}
				for _, err := range pol.errs {
					t.Error(err)
				}
			})
		}
	}
}

// boundaryWorld builds a three-shard world whose sharded round is
// guaranteed to produce a boundary (cross-shard) move: hotspot 0 is
// overloaded alone in its shard, the others hold all the slack.
func boundaryWorld(t *testing.T) (*trace.World, *core.Demand) {
	t.Helper()
	world := &trace.World{
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20},
		Hotspots: []trace.Hotspot{
			{ID: 0, Location: geo.Point{X: 1, Y: 1}, ServiceCapacity: 2, CacheCapacity: 4},
			{ID: 1, Location: geo.Point{X: 11, Y: 1}, ServiceCapacity: 10, CacheCapacity: 4},
			{ID: 2, Location: geo.Point{X: 1, Y: 11}, ServiceCapacity: 10, CacheCapacity: 4},
		},
		NumVideos:     16,
		CDNDistanceKm: 28,
	}
	if err := world.Validate(); err != nil {
		t.Fatalf("hand-built world invalid: %v", err)
	}
	d := core.NewDemand(3)
	d.Add(0, 1, 10)
	return world, d
}

// TestShardedBoundaryCorruptionDetected corrupts a merged plan at a
// shard boundary in every structurally distinct way and requires
// CheckPlan to reject each one.
func TestShardedBoundaryCorruptionDetected(t *testing.T) {
	world, d := boundaryWorld(t)

	solve := func(t *testing.T) (*shard.Scheduler, *core.Plan) {
		t.Helper()
		s, err := shard.New(world, shard.Params{CellKm: 5})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		plan, err := s.ScheduleRound(d.Clone(), core.Constraints{})
		if err != nil {
			t.Fatalf("ScheduleRound: %v", err)
		}
		return s, plan
	}

	// The clean plan must pass, and must actually contain a boundary
	// move — otherwise the corruptions below prove nothing.
	s, clean := solve(t)
	if err := CheckPlan(world, d, core.Constraints{}, clean); err != nil {
		t.Fatalf("clean sharded plan rejected: %v", err)
	}
	boundaryIdx := -1
	for i, r := range clean.Redirects {
		if s.Partition().OfHotspot[r.From] != s.Partition().OfHotspot[r.To] {
			boundaryIdx = i
			break
		}
	}
	if boundaryIdx < 0 {
		t.Fatal("sharded round produced no boundary move on the adversarial world")
	}

	corruptions := map[string]func(s *shard.Scheduler, plan *core.Plan){
		"inflate boundary redirect count": func(s *shard.Scheduler, plan *core.Plan) {
			plan.Redirects[boundaryIdx].Count++
		},
		"drop boundary placement at target": func(s *shard.Scheduler, plan *core.Plan) {
			r := plan.Redirects[boundaryIdx]
			row := slices.DeleteFunc(slices.Clone(plan.Placement.Row(int(r.To))), func(v int32) bool { return v == int32(r.Video) })
			plan.Placement = withRow(plan.Placement, int(r.To), row)
		},
		"re-strand moved flow at source": func(s *shard.Scheduler, plan *core.Plan) {
			r := plan.Redirects[boundaryIdx]
			plan.OverflowToCDN[r.From]++
		},
		"desync flows from redirects": func(s *shard.Scheduler, plan *core.Plan) {
			plan.Flows = plan.Flows[:0]
		},
		"misreport omega": func(s *shard.Scheduler, plan *core.Plan) {
			plan.Stats.Omega1Km += 5
		},
		"retarget move into the source shard": func(s *shard.Scheduler, plan *core.Plan) {
			plan.Redirects[boundaryIdx].To = plan.Redirects[boundaryIdx].From
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, plan := solve(t)
			corrupt(s, plan)
			if err := CheckPlan(world, d, core.Constraints{}, plan); err == nil {
				t.Fatal("CheckPlan accepted the boundary-corrupted plan")
			}
		})
	}
}
