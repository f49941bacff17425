package invariant

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
)

// genWorld builds a small calibrated world whose demand oversubscribes
// part of the fleet, so plans actually contain redirects and overflow.
func genWorld(t *testing.T, seed int64, mutate func(*trace.Config)) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.NumHotspots = 24
	cfg.NumVideos = 400
	cfg.NumUsers = 600
	cfg.NumRequests = 2600
	cfg.NumRegions = 4
	cfg.Slots = 4
	if mutate != nil {
		mutate(&cfg)
	}
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

// slotContext packages one slot of the trace as a scheduling context.
func slotContext(t *testing.T, world *trace.World, tr *trace.Trace, slot int) *sim.SlotContext {
	t.Helper()
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := sim.BuildSlotContext(world, index, slot, tr.BySlot()[slot], stats.SplitRand(int64(slot)+1, "invariant-test"))
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// constraintVariants enumerates the effective-capacity regimes a round
// can be scheduled under: nominal, a degraded fleet (half the hotspots
// at half service and half cache), and a partial blackout (every fourth
// hotspot at zero service).
func constraintVariants(world *trace.World) map[string]core.Constraints {
	m := len(world.Hotspots)
	nominalSvc := make([]int64, m)
	nominalCache := make([]int, m)
	for h := range world.Hotspots {
		nominalSvc[h] = world.Hotspots[h].ServiceCapacity
		nominalCache[h] = world.Hotspots[h].CacheCapacity
	}
	degSvc := append([]int64(nil), nominalSvc...)
	degCache := append([]int(nil), nominalCache...)
	for h := 0; h < m; h += 2 {
		degSvc[h] /= 2
		degCache[h] /= 2
	}
	blackSvc := append([]int64(nil), nominalSvc...)
	for h := 0; h < m; h += 4 {
		blackSvc[h] = 0
	}
	return map[string]core.Constraints{
		"nominal":  {},
		"degraded": {Service: degSvc, Cache: degCache},
		"blackout": {Service: blackSvc, Cache: nominalCache},
	}
}

// TestCheckPlanRBCAer is the core-level property test: every plan the
// scheduler emits — across trace seeds, slots, and capacity regimes —
// must satisfy all feasibility and accounting invariants.
func TestCheckPlanRBCAer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		world, tr := genWorld(t, seed, nil)
		sched, err := core.New(world, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for name, cons := range constraintVariants(world) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				var redirects, overflow int64
				for slot := 0; slot < 2; slot++ {
					d := slotContext(t, world, tr, slot).Demand
					plan, err := sched.ScheduleRound(d, cons)
					if err != nil {
						t.Fatalf("slot %d: ScheduleRound: %v", slot, err)
					}
					if err := CheckPlan(world, d, cons, plan); err != nil {
						t.Errorf("slot %d: %v", slot, err)
					}
					redirects += int64(len(plan.Redirects))
					overflow += plan.Stats.StrandedToCDN
				}
				// The property test is vacuous on a plan with no
				// movement at all; the worlds are tuned to redirect.
				if redirects == 0 && overflow == 0 {
					t.Error("no redirects or overflow scheduled; world too idle to exercise invariants")
				}
			})
		}
	}
}

// TestCheckPlanDeltaRounds runs the same invariant bar over the
// incremental scheduler: a single stateful delta-mode scheduler walks
// every slot of the trace while the effective constraints flip between
// regimes, and every plan — cold, patched, replayed, or fallen back —
// must satisfy the full invariant set and match an independent full
// solve digest-for-digest.
func TestCheckPlanDeltaRounds(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		world, tr := genWorld(t, seed, nil)
		params := core.DefaultParams()
		params.DeltaThreshold = 1
		params.FullSolveEvery = 3
		sched, err := core.New(world, params)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.New(world, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		variants := constraintVariants(world)
		order := []string{"nominal", "nominal", "degraded", "blackout"}
		for slot := 0; slot < tr.Slots; slot++ {
			cons := variants[order[slot%len(order)]]
			d := slotContext(t, world, tr, slot).Demand
			plan, err := sched.ScheduleRound(d, cons)
			if err != nil {
				t.Fatalf("seed %d slot %d: delta ScheduleRound: %v", seed, slot, err)
			}
			if err := CheckPlan(world, d, cons, plan); err != nil {
				t.Errorf("seed %d slot %d (delta round=%v): %v", seed, slot, plan.Stats.DeltaRound, err)
			}
			ref, err := full.ScheduleRound(d.Clone(), cons)
			if err != nil {
				t.Fatalf("seed %d slot %d: full ScheduleRound: %v", seed, slot, err)
			}
			if plan.Digest() != ref.Digest() {
				t.Errorf("seed %d slot %d: delta plan diverges from full solve", seed, slot)
			}
		}
		if st := sched.DeltaStats(); st.Rounds == 0 || st.Fallbacks == 0 {
			t.Errorf("seed %d: delta stats %+v never exercised rounds and fallbacks", seed, st)
		}
	}
}

// TestCheckPlanNegative corrupts valid plans one invariant at a time
// and requires CheckPlan to fail loudly on each.
func TestCheckPlanNegative(t *testing.T) {
	world, tr := genWorld(t, 1, nil)
	cache0 := world.Hotspots[0].CacheCapacity

	corruptions := map[string]func(*core.Plan){
		"extra-redirect": func(p *core.Plan) {
			p.Redirects = append(p.Redirects, core.Redirect{From: 0, To: 1, Video: 0, Count: 5})
		},
		"self-loop": func(p *core.Plan) {
			p.Redirects = append(p.Redirects, core.Redirect{From: 2, To: 2, Video: 0, Count: 1})
		},
		"cache-overflow": func(p *core.Plan) {
			for v := world.NumVideos; p.Placement[0].Len() <= cache0; v++ {
				p.Placement[0].Add(v)
			}
		},
		"replica-ledger": func(p *core.Plan) {
			p.Stats.Replicas++
		},
		"omega1-drift": func(p *core.Plan) {
			p.Stats.Omega1Km += 1
		},
		"stranded-ledger": func(p *core.Plan) {
			p.Stats.StrandedToCDN++
		},
		"overflow-conservation": func(p *core.Plan) {
			p.OverflowToCDN[0]++
		},
		"moved-exceeds-max": func(p *core.Plan) {
			p.Stats.MovedFlow = p.Stats.MaxFlow + 1
		},
	}

	sched, err := core.New(world, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d := slotContext(t, world, tr, 0).Demand
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			// The scheduler is deterministic, so a fresh schedule is a
			// fresh deep copy to corrupt.
			plan, err := sched.ScheduleRound(d, core.Constraints{})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckPlan(world, d, core.Constraints{}, plan); err != nil {
				t.Fatalf("baseline plan already invalid: %v", err)
			}
			corrupt(plan)
			if err := CheckPlan(world, d, core.Constraints{}, plan); err == nil {
				t.Fatal("CheckPlan accepted the corrupted plan")
			}
		})
	}
}

// checkingPolicy wraps a scheme and runs every slot assignment through
// CheckAssignment before handing it to the simulator.
type checkingPolicy struct {
	inner sim.Scheduler
	slots int
	errs  []error
}

func (c *checkingPolicy) Name() string { return c.inner.Name() }

func (c *checkingPolicy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	asg, err := c.inner.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	c.slots++
	if _, cerr := CheckAssignment(ctx, asg); cerr != nil {
		c.errs = append(c.errs, fmt.Errorf("slot %d: %w", ctx.Slot, cerr))
	}
	return asg, nil
}

// TestAllSchemesAssignmentInvariants runs every scheme through the
// simulator — clean and under a composite fault timeline — asserting
// each slot's assignment passes CheckAssignment.
func TestAllSchemesAssignmentInvariants(t *testing.T) {
	world, tr := genWorld(t, 1, nil)
	schemes := map[string]func() sim.Scheduler{
		"RBCAer":     func() sim.Scheduler { return scheme.NewRBCAer(core.DefaultParams()) },
		"Nearest":    func() sim.Scheduler { return scheme.Nearest{} },
		"Random":     func() sim.Scheduler { return scheme.Random{RadiusKm: 1.5} },
		"PowerOfTwo": func() sim.Scheduler { return scheme.PowerOfTwo{RadiusKm: 1.5} },
		"Reactive":   func() sim.Scheduler { return scheme.NewReactiveLRU() },
		"LP-based":   func() sim.Scheduler { return scheme.LPBased{MaxGroups: 120, Dantzig: true} },
	}
	scenarios := map[string]sim.Options{
		"clean": {Seed: 5},
		"faults": {Seed: 5, Faults: &fault.Scenario{
			Name:  "invariant-stress",
			Churn: &fault.MarkovChurn{FailPerSlot: 0.1, RecoverPerSlot: 0.4},
			Degradations: []fault.CapacityDegradation{
				{StartSlot: 1, EndSlot: 3, Fraction: 0.5, ServiceFactor: 0.5, CacheFactor: 0.5},
			},
			FlashCrowds: []fault.FlashCrowd{{StartSlot: 1, EndSlot: 3, TopVideos: 3, Multiplier: 2}},
		}},
	}
	for sname, opts := range scenarios {
		for pname, build := range schemes {
			t.Run(sname+"/"+pname, func(t *testing.T) {
				pol := &checkingPolicy{inner: build()}
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

// TestCheckAssignmentNegative corrupts a valid assignment in every
// structurally distinct way and requires CheckAssignment to reject it.
func TestCheckAssignmentNegative(t *testing.T) {
	world, tr := genWorld(t, 2, nil)
	ctx := slotContext(t, world, tr, 0)
	asg, err := (scheme.Nearest{}).Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckAssignment(ctx, asg); err != nil {
		t.Fatalf("baseline assignment invalid: %v", err)
	}
	if _, err := CheckAssignment(nil, asg); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := CheckAssignment(ctx, nil); err == nil {
		t.Error("nil assignment accepted")
	}

	t.Run("short-placement", func(t *testing.T) {
		bad := *asg
		bad.Placement = asg.Placement[:len(asg.Placement)-1]
		if _, err := CheckAssignment(ctx, &bad); err == nil {
			t.Error("truncated placement accepted")
		}
	})
	t.Run("short-targets", func(t *testing.T) {
		bad := *asg
		bad.Target = asg.Target[:len(asg.Target)-1]
		if _, err := CheckAssignment(ctx, &bad); err == nil {
			t.Error("truncated targets accepted")
		}
	})
	t.Run("target-out-of-range", func(t *testing.T) {
		bad := *asg
		bad.Target = append([]int(nil), asg.Target...)
		bad.Target[0] = len(world.Hotspots) + 3
		if _, err := CheckAssignment(ctx, &bad); err == nil {
			t.Error("out-of-range target accepted")
		}
	})
	t.Run("cache-overflow", func(t *testing.T) {
		bad := *asg
		bad.Placement = append([]similarity.Set(nil), asg.Placement...)
		over := similarity.NewSet()
		for v := range asg.Placement[0] {
			over.Add(v)
		}
		cache := ctx.EffectiveCacheCapacity()
		for v := world.NumVideos; over.Len() <= cache[0]; v++ {
			over.Add(v)
		}
		bad.Placement[0] = over
		if _, err := CheckAssignment(ctx, &bad); err == nil {
			t.Error("oversized placement accepted")
		}
	})
}
