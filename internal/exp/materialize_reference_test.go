package exp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// This file keeps the map-based plan materialisation and slot
// evaluation that sorted placement runs replaced, as the reference
// TestMaterializeAndApplyMatchReference holds them to.

// referenceMaterializePlan is scheme.MaterializePlan with one redirect
// queue per (source, video) key in a map and placement sets.
func referenceMaterializePlan(ctx *sim.SlotContext, plan *core.Plan) []int {
	m := len(ctx.World.Hotspots)
	placement := setsOf(plan.Placement)
	type redirectQueue struct {
		targets []int
		counts  []int64
	}
	queues := make(map[int64]*redirectQueue)
	inflow := make([]int64, m)
	key := func(h int, v trace.VideoID) int64 {
		return int64(h)*int64(ctx.World.NumVideos) + int64(v)
	}
	for _, rd := range plan.Redirects {
		k := key(int(rd.From), rd.Video)
		q := queues[k]
		if q == nil {
			q = &redirectQueue{}
			queues[k] = q
		}
		q.targets = append(q.targets, int(rd.To))
		q.counts = append(q.counts, rd.Count)
		inflow[rd.To] += rd.Count
	}
	capacity := ctx.EffectiveCapacity()
	localBudget := make([]int64, m)
	for h := range localBudget {
		localBudget[h] = capacity[h] - inflow[h]
	}
	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		if q, ok := queues[key(h, req.Video)]; ok && len(q.targets) > 0 {
			targets[r] = q.targets[0]
			q.counts[0]--
			if q.counts[0] == 0 {
				q.targets = q.targets[1:]
				q.counts = q.counts[1:]
			}
			continue
		}
		if localBudget[h] > 0 && placement[h].Contains(int(req.Video)) {
			targets[r] = h
			localBudget[h]--
			continue
		}
		targets[r] = sim.CDN
	}
	return targets
}

// referenceApply is the simulator's slot evaluation on placement sets:
// replicas new against the previous slot's sets, then every request
// served in order under placement and effective capacity.
func referenceApply(ctx *sim.SlotContext, asg *sim.Assignment, prev []similarity.Set) (sm sim.SlotMetrics, placement []similarity.Set) {
	placement = setsOf(asg.Placement)
	for h, pl := range placement {
		for v := range pl {
			if prev == nil || !prev[h].Contains(v) {
				sm.Replicas++
			}
		}
	}
	capLeft := slices.Clone(ctx.Capacity)
	for r, req := range ctx.Requests {
		target := asg.Target[r]
		if target != sim.CDN && !(capLeft[target] > 0 && placement[target].Contains(int(req.Video))) {
			sm.Infeasible++
			target = sim.CDN
		}
		if target == sim.CDN {
			sm.ServedByCDN++
		} else {
			capLeft[target]--
			sm.ServedByHotspot++
		}
	}
	sm.Slot, sm.Requests = ctx.Slot, int64(len(ctx.Requests))
	return sm, placement
}

func setsOf(p core.PlacementRuns) []similarity.Set {
	out := make([]similarity.Set, p.Rows())
	for h := range out {
		out[h] = similarity.NewSet()
		for _, v := range p.Row(h) {
			out[h].Add(int(v))
		}
	}
	return out
}

// recorder wraps a policy, holding every plan's materialisation to the
// reference and keeping each slot's context and assignment.
type recorder struct {
	t     *testing.T
	inner sim.Scheduler
	slots []recordedSlot
}

type recordedSlot struct {
	ctx *sim.SlotContext
	asg *sim.Assignment
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	asg, err := r.inner.Schedule(ctx)
	if err != nil {
		return nil, err
	}
	if asg.Plan != nil {
		if want := referenceMaterializePlan(ctx, asg.Plan); !slices.Equal(asg.Target, want) {
			r.t.Errorf("%s slot %d: MaterializePlan targets diverge from the reference", r.Name(), ctx.Slot)
		}
	}
	r.slots = append(r.slots, recordedSlot{ctx, asg})
	return asg, nil
}

// TestMaterializeAndApplyMatchReference runs the fig6 workload and the
// resilience sweep's fault families under RBCAer and the baselines, and
// holds every RBCAer plan's per-request targets to the map-based
// materialisation and every scheduled slot's metrics to the set-based
// evaluation.
func TestMaterializeAndApplyMatchReference(t *testing.T) {
	r := testRunner()
	world, tr, err := r.evalData()
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.evalConfig()
	cfg.Slots, cfg.NumRequests, cfg.ServiceCapacityFrac = 6, cfg.NumRequests*2, cfg.ServiceCapacityFrac/2
	rworld, rtr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	center := rworld.Bounds.Center()
	workloads := []struct {
		name   string
		world  *trace.World
		tr     *trace.Trace
		faults *fault.Scenario
	}{
		{"fig6", world, tr, nil},
		{"churn", rworld, rtr, &fault.Scenario{Churn: &fault.MarkovChurn{FailPerSlot: 0.15, RecoverPerSlot: 0.4}}},
		{"outage", rworld, rtr, &fault.Scenario{Outages: []fault.RegionalOutage{{Center: center, RadiusKm: 0.25 * rworld.Bounds.Diagonal(), StartSlot: 2, EndSlot: 4}}}},
		{"degrade", rworld, rtr, &fault.Scenario{Degradations: []fault.CapacityDegradation{{Fraction: 0.5, ServiceFactor: 0.5, CacheFactor: 0.5, StartSlot: 1, EndSlot: 5}}}},
		{"flash", rworld, rtr, &fault.Scenario{FlashCrowds: []fault.FlashCrowd{{StartSlot: 2, EndSlot: 4, TopVideos: 10, Multiplier: 3}}}},
		{"stale", rworld, rtr, &fault.Scenario{Staleness: &fault.StaleReports{LagSlots: 1, DropFraction: 0.2}}},
	}
	policies := map[string]func() sim.Scheduler{
		"rbcaer":  func() sim.Scheduler { return scheme.NewRBCAer(core.DefaultParams()) },
		"nearest": func() sim.Scheduler { return scheme.Nearest{} },
		"random":  func() sim.Scheduler { return scheme.Random{RadiusKm: 1.5} },
		"hier":    func() sim.Scheduler { return scheme.NewHierarchical(3) },
	}
	for _, wl := range workloads {
		for name, policy := range policies {
			t.Run(fmt.Sprintf("%s/%s", wl.name, name), func(t *testing.T) {
				rec := &recorder{t: t, inner: policy()}
				var got []sim.SlotMetrics
				_, err := sim.Run(wl.world, wl.tr, rec, sim.Options{Seed: 1, Faults: wl.faults, SlotSink: func(sm sim.SlotMetrics) error {
					got = append(got, sm)
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.slots) == 0 {
					t.Fatal("no slot scheduled")
				}
				var prev []similarity.Set
				for _, rs := range rec.slots {
					want, placement := referenceApply(rs.ctx, rs.asg, prev)
					prev = placement
					i := slices.IndexFunc(got, func(sm sim.SlotMetrics) bool { return sm.Slot == rs.ctx.Slot })
					if i < 0 {
						t.Fatalf("slot %d: no slot metrics", rs.ctx.Slot)
					}
					g := got[i]
					if g.Requests != want.Requests || g.ServedByHotspot != want.ServedByHotspot || g.ServedByCDN != want.ServedByCDN ||
						g.Replicas != want.Replicas || g.Infeasible != want.Infeasible {
						t.Fatalf("slot %d: metrics %+v, reference %+v", rs.ctx.Slot, g, want)
					}
				}
			})
		}
	}
}
