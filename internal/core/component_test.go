package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/mcmf"
	"repro/internal/trace"
)

// wholeNetworkCheck holds the step network st, about to be solved one
// component at a time, to the whole network built as one graph and
// solved with MinCostMaxFlow: the components' flows must sum to its
// flow exactly and their costs to its cost within 1e-9 relative. It
// also checks that the components partition the targets with pairs and
// that no overloaded hotspot has pairs in two of them, so no arc of the
// whole network joins two components.
func wholeNetworkCheck(s *Scheduler, st *stepNet, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) error {
	want, err := s.referenceNetwork(mcmf.NewGraph(0), st, phiOver, phiUnder, clusterOf, useGuides).g.MinCostMaxFlow(netSource, netSink)
	if err != nil {
		return err
	}
	targets := 0
	for uj := range st.under {
		if len(st.pairs(int32(uj))) > 0 {
			targets++
		}
	}
	if len(st.comps) != targets {
		return fmt.Errorf("%d targets have pairs, the components hold %d", targets, len(st.comps))
	}
	compOf := make(map[int]int)
	var flow int64
	var cost float64
	for c := range st.components() {
		for _, uj := range st.comps[st.compAt[c]:st.compAt[c+1]] {
			for _, p := range st.pairs(uj) {
				if prev, ok := compOf[p.i]; ok && prev != c {
					return fmt.Errorf("hotspot %d has pairs in components %d and %d", p.i, prev, c)
				}
				compOf[p.i] = c
			}
		}
		res, err := s.buildNetwork(st, c, phiOver, phiUnder, clusterOf, useGuides).g.MinCostMaxFlow(netSource, netSink)
		if err != nil {
			return err
		}
		flow += res.Flow
		cost += res.Cost
	}
	if flow != want.Flow || math.Abs(cost-want.Cost) > 1e-9*max(1, math.Abs(want.Cost)) {
		return fmt.Errorf("%d components carry %d at cost %v, the whole network %d at cost %v",
			st.components(), flow, cost, want.Flow, want.Cost)
	}
	return nil
}

// reverseOrderCheck solves st's components in ascending order and in
// descending order, each pass from its own copy of φ, extracting flows
// as solveStep does, and fails unless both passes attribute the same
// flow to every pair: a component's flow depends on nothing outside it.
func reverseOrderCheck(s *Scheduler, st *stepNet, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) error {
	solve := func(reverse bool) (map[int64]int64, error) {
		flows := make(map[int64]int64)
		po, pu := slices.Clone(phiOver), slices.Clone(phiUnder)
		for k := range st.components() {
			c := k
			if reverse {
				c = st.components() - 1 - k
			}
			nb := s.buildNetwork(st, c, po, pu, clusterOf, useGuides)
			if _, err := nb.g.MinCostMaxFlow(netSource, netSink); err != nil {
				return nil, err
			}
			s.extractFlows(nb, flows, po, pu)
		}
		return flows, nil
	}
	fwd, err := solve(false)
	if err != nil {
		return err
	}
	rev, err := solve(true)
	if err != nil {
		return err
	}
	if !maps.Equal(fwd, rev) {
		return fmt.Errorf("%d components in reverse order attribute flow to %d pairs, in order to %d (or the flows differ)",
			st.components(), len(rev), len(fwd))
	}
	return nil
}

// stepChecks is every check checkSteps runs on a step network.
var stepChecks = []struct {
	name  string
	check func(s *Scheduler, st *stepNet, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) error
}{{"whole network", wholeNetworkCheck}, {"reverse order", reverseOrderCheck}}

// checkSteps runs the named check (every one for "") on each network
// solveStep is handed until the returned function uninstalls it, which
// returns how many networks were checked. A failing check is reported
// through tb with the network's θ-step shape.
func checkSteps(tb testing.TB, name string) (uninstall func() int64) {
	var n atomic.Int64
	stepCheck = func(s *Scheduler, st *stepNet, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) {
		n.Add(1)
		for _, c := range stepChecks {
			if name != "" && c.name != name {
				continue
			}
			if err := c.check(s, st, phiOver, phiUnder, clusterOf, useGuides); err != nil {
				tb.Errorf("%s: step with %d pairs, guides=%v: %v", c.name, st.directPairs, useGuides, err)
			}
		}
	}
	return func() int64 {
		stepCheck = nil
		return n.Load()
	}
}

// benchSweeps schedules every slot of the serving benchmark's worlds —
// 310 hotspots (16 slots, as edge_*) and 1,240 (10 slots, as
// city_sched), seeds 1 and 2 — through one scheduler each, with the
// named step check on every network of their sweeps.
func benchSweeps(t *testing.T, check string) {
	for _, wl := range []struct{ fleet, slotRequests, slots int }{{1, 25000, 16}, {4, 50000, 10}} {
		for _, seed := range []int64{1, 2} {
			if testing.Short() && wl.fleet > 1 {
				continue
			}
			world, tr := benchShapedTrace(t, wl.fleet, wl.slotRequests, wl.slots, seed)
			s, err := New(world, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			demands := slotDemands(t, world, tr)
			uninstall := checkSteps(t, check)
			for slot, d := range demands {
				plan, err := s.ScheduleRound(d, Constraints{})
				if err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				if plan.Degraded {
					t.Fatalf("slot %d: degraded round", slot)
				}
			}
			networks := uninstall()
			if networks < int64(len(demands)) {
				t.Fatalf("hotspots=%d/seed=%d: %d networks checked over %d slots", len(world.Hotspots), seed, networks, len(demands))
			}
			t.Logf("hotspots=%d/seed=%d: %d step networks checked", len(world.Hotspots), seed, networks)
		}
	}
}

// slotDemands aggregates each slot of tr to its requests' nearest
// hotspots, as the simulator does.
func slotDemands(tb testing.TB, world *trace.World, tr *trace.Trace) []*Demand {
	tb.Helper()
	index, err := world.Index()
	if err != nil {
		tb.Fatal(err)
	}
	var out []*Demand
	for _, reqs := range tr.BySlot() {
		nearest := make([]int, len(reqs))
		for r, req := range reqs {
			h, _, ok := index.Nearest(req.Location)
			if !ok {
				tb.Fatalf("request %d has no hotspot", req.ID)
			}
			nearest[r] = h
		}
		out = append(out, AggregateDemand(len(world.Hotspots), nearest, reqs))
	}
	return out
}

// TestComponentSolvesMatchWholeNetwork holds the per-component solve of
// every step network of real sweeps — the serving benchmark's worlds at
// 310 and 1,240 hotspots, seeds 1 and 2 — to the whole network solved
// as one graph (wholeNetworkCheck). The golden workloads get the same
// check in TestComponentSolvesOnGoldenWorkloads.
func TestComponentSolvesMatchWholeNetwork(t *testing.T) {
	benchSweeps(t, "whole network")
}

// TestComponentOrderIndependent solves every step network of the same
// sweeps one component at a time in reverse order and requires the
// per-pair flows of the ascending order (reverseOrderCheck).
func TestComponentOrderIndependent(t *testing.T) {
	benchSweeps(t, "reverse order")
}
