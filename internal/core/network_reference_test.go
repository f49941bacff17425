package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/mcmf"
	"repro/internal/par"
)

// The dense over × under candidate scan as it stood before the θ2 rows,
// kept as the oracle TestBuildNetworkMatchesDense holds distCache's rows
// to.

// referenceDistances is the dense distance matrix the cache used to
// hold: d[oi*len(under)+uj] = distance(over[oi], under[uj]).
func (s *Scheduler) referenceDistances(over, under []int) []float64 {
	nu := len(under)
	d := make([]float64, len(over)*nu)
	for oi, i := range over {
		pi := s.locs[i]
		for uj, j := range under {
			d[oi*nu+uj] = pi.DistanceTo(s.locs[j])
		}
	}
	return d
}

// referenceCandidates is buildNetwork's per-θ scan as it stood: target
// under[uj]'s admissible pairs, found by reading every overloaded
// hotspot's cell of the dense matrix.
func referenceCandidates(dense []float64, uj int, theta float64, over, under []int, phiOver, phiUnder []int64) []cand {
	var cands []cand
	j := under[uj]
	if phiUnder[j] > 0 {
		for oi, i := range over {
			if phiOver[i] <= 0 {
				continue
			}
			d := dense[oi*len(under)+uj]
			if d >= theta {
				continue
			}
			phiIJ := phiOver[i]
			if phiUnder[j] < phiIJ {
				phiIJ = phiUnder[j]
			}
			cands = append(cands, cand{i: i, phiIJ: phiIJ, distIJ: d})
		}
	}
	return cands
}

// sameNetwork fails unless got and want are the same network: the same
// counts, nodes, edges in the same order with the same endpoints,
// capacities, costs and flows, and the same flow attribution.
func sameNetwork(t *testing.T, name string, got, want *flowNet) {
	t.Helper()
	if got.directPairs != want.directPairs || got.guideNodes != want.guideNodes {
		t.Fatalf("%s: %d direct pairs and %d guide nodes, dense scan %d and %d",
			name, got.directPairs, got.guideNodes, want.directPairs, want.guideNodes)
	}
	if got.g.NumNodes() != want.g.NumNodes() || got.g.NumEdges() != want.g.NumEdges() {
		t.Fatalf("%s: %d nodes and %d edges, dense scan %d and %d",
			name, got.g.NumNodes(), got.g.NumEdges(), want.g.NumNodes(), want.g.NumEdges())
	}
	for id := mcmf.EdgeID(0); int(id) < got.g.NumEdges(); id++ {
		ge, _ := got.g.EdgeInfo(id)
		we, _ := want.g.EdgeInfo(id)
		if ge != we {
			t.Fatalf("%s: edge %d is %+v, dense scan %+v", name, id, ge, we)
		}
	}
	if !slices.Equal(got.edges, want.edges) {
		t.Fatalf("%s: flow attribution diverges from the dense scan", name)
	}
}

// TestBuildNetworkMatchesDense holds the θ2 candidate rows to the dense
// over × under scan they replaced, on real sweeps at 310 and 1,240
// hotspots: at every θ step and the residual Gd pass, the network built
// from the rows and the one built from the dense scan's candidates must
// be the same network, and the cache must count the same distance
// evaluations. The sweep is driven step by step as runSweep drives it —
// solve the network, extract its flows — and must end where
// ScheduleRound ends. AnalyzeTheta, whose rows are bounded by
// max(θ, θ2), is held to the dense scan below θ1, at θ2 and beyond it.
func TestBuildNetworkMatchesDense(t *testing.T) {
	for _, bc := range []struct {
		m, requests, videos int
	}{{310, 12500, 15000}, {1240, 50000, 15000}} {
		world := lineWorld(bc.m, 0.3, 30, 40) // sparse enough that every θ step admits pairs
		params := DefaultParams()
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("m%d-seed%d", bc.m, seed)
			d := randomDemand(world, bc.requests, bc.videos, seed)
			s, err := New(world, params)
			if err != nil {
				t.Fatal(err)
			}
			clusterOf, _, err := s.contentClusters(d)
			if err != nil {
				t.Fatal(err)
			}
			over, under, phiOver, phiUnder := s.partition(d, world.ServiceCapacities())
			dc := s.newDistCache(over, under, params.Theta2, par.Workers(0))
			dense := s.referenceDistances(over, under)
			if dc.calcs() != int64(len(dense)) || dc.calcs() == 0 {
				t.Fatalf("%s: the cache counts %d distance evaluations, the dense matrix holds %d", name, dc.calcs(), len(dense))
			}
			refG, refShell := mcmf.NewGraph(0), new(flowNet)
			denseCands := func(theta float64) func([]cand, int) []cand {
				return func(dst []cand, uj int) []cand {
					return append(dst, referenceCandidates(dense, uj, theta, over, under, phiOver, phiUnder)...)
				}
			}

			flows := s.ar.emptyFlows()
			var moved int64
			var stats Stats
			thetas := sweepThetas(params)
			for step, theta := range append(thetas, params.Theta2) {
				residual := step == len(thetas)
				cl, guides := clusterOf, true
				if residual {
					cl, guides = nil, false
				}
				stepName := fmt.Sprintf("%s θ=%v residual=%v", name, theta, residual)
				got := s.buildNetwork(theta, over, under, phiOver, phiUnder, dc, cl, guides)
				want := s.assembleNetwork(refG, refShell, under, phiOver, phiUnder, cl, guides, denseCands(theta))
				sameNetwork(t, stepName, got, want)
				if got.directPairs == 0 && !residual {
					t.Fatalf("%s: an empty network exercises nothing", stepName)
				}
				extracted, _, _ := s.solveStep(got, int64(1)<<62, flows, phiOver, phiUnder, &stats)
				moved += extracted
			}

			fresh, err := New(world, params)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := fresh.ScheduleRound(d, Constraints{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Stats.MovedFlow != moved || !maps.Equal(fresh.ar.flows, flows) {
				t.Fatalf("%s: the driven sweep moved %d, ScheduleRound %d (or their flows differ)", name, moved, plan.Stats.MovedFlow)
			}

			for _, theta := range []float64{params.Theta1 / 2, params.Theta2, 2 * params.Theta2} {
				// The sweep spent φ; AnalyzeTheta starts from the same
				// nominal partition, so dense still indexes it.
				over, under, phiOver, phiUnder = s.partition(d, world.ServiceCapacities())
				ta, err := s.AnalyzeTheta(d, theta)
				if err != nil {
					t.Fatal(err)
				}
				want := s.assembleNetwork(refG, refShell, under, phiOver, phiUnder, nil, false, denseCands(theta))
				res, err := want.g.Solve(want.source, want.sink, int64(1)<<62)
				if err != nil {
					t.Fatal(err)
				}
				if ta.DirectEdges != want.directPairs || ta.Flow != res.Flow {
					t.Fatalf("%s AnalyzeTheta(%v): %d edges carry %d, dense scan %d carry %d",
						name, theta, ta.DirectEdges, ta.Flow, want.directPairs, res.Flow)
				}
				dc := s.newDistCache(over, under, max(theta, params.Theta2), par.Workers(0))
				got := s.buildNetwork(theta, over, under, phiOver, phiUnder, dc, nil, false)
				want = s.assembleNetwork(refG, refShell, under, phiOver, phiUnder, nil, false, denseCands(theta))
				sameNetwork(t, fmt.Sprintf("%s AnalyzeTheta(%v)", name, theta), got, want)
			}
		}
	}
}
