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

// denseStep is the step at θ gathered by the dense scan: every
// target's admissible pairs, with no components found.
func denseStep(dense []float64, theta float64, over, under []int, phiOver, phiUnder []int64) *stepNet {
	st := &stepNet{under: under, at: []int32{0}}
	for uj := range under {
		st.cands = append(st.cands, referenceCandidates(dense, uj, theta, over, under, phiOver, phiUnder)...)
		st.at = append(st.at, int32(len(st.cands)))
	}
	st.directPairs = len(st.cands)
	return st
}

// referenceNetwork builds the whole network of st into g as one graph —
// every target with pairs in ascending hotspot order, as the sweep built
// it before it solved one component at a time — and returns it. It is
// the oracle the component solves are held to.
func (s *Scheduler) referenceNetwork(g *mcmf.Graph, st *stepNet, phiOver, phiUnder []int64, clusterOf []int, useGuides bool) *flowNet {
	s.ar.epoch++
	g.Reinit(2)
	nb := &flowNet{g: g}
	for uj, j := range st.under {
		if cands := st.pairs(int32(uj)); len(cands) > 0 {
			s.addTarget(nb, j, cands, phiOver, phiUnder, clusterOf, useGuides)
		}
	}
	return nb
}

// samePairs fails unless got and want gather the same pairs, target by
// target.
func samePairs(t *testing.T, name string, got, want *stepNet) {
	t.Helper()
	if got.directPairs != want.directPairs || !slices.Equal(got.at, want.at) || !slices.Equal(got.cands, want.cands) {
		t.Fatalf("%s: %d pairs gathered from the rows, %d by the dense scan (or they differ)", name, got.directPairs, want.directPairs)
	}
}

// TestBuildNetworkMatchesDense holds the θ2 candidate rows to the dense
// over × under scan they replaced, on real sweeps at 310 and 1,240
// hotspots: at every θ step and the residual Gd pass, the pairs gathered
// from the rows and those of the dense scan must be the same, target by
// target, and the cache must count the same distance evaluations. The
// sweep is driven step by step as runSweep drives it — gather the step,
// solve its components, extract their flows — and must end where
// ScheduleRound ends. AnalyzeTheta, whose rows are bounded by
// max(θ, θ2), is held to the dense scan's whole network below θ1, at θ2
// and beyond it.
func TestBuildNetworkMatchesDense(t *testing.T) {
	thetas := sweepThetas(DefaultParams())
	admitted := make([]int, len(thetas)+1) // pairs per step over every case
	for _, bc := range []struct {
		m, requests, videos int
	}{{310, 12500, 15000}, {1240, 50000, 15000}} {
		world := lineWorld(bc.m, 0.3, 30, 40) // sparse enough that every θ step admits pairs in some case
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

			flows := s.ar.emptyFlows()
			var moved int64
			var stats Stats
			for step, theta := range append(thetas, params.Theta2) {
				residual := step == len(thetas)
				cl, guides := clusterOf, true
				if residual {
					cl, guides = nil, false
				}
				stepName := fmt.Sprintf("%s θ=%v residual=%v", name, theta, residual)
				got := s.newStep(theta, over, under, phiOver, phiUnder, dc)
				samePairs(t, stepName, got, denseStep(dense, theta, over, under, phiOver, phiUnder))
				admitted[step] += got.directPairs
				moved += s.solveStep(got, cl, guides, flows, phiOver, phiUnder, &stats).moved
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

			refG := mcmf.NewGraph(0)
			for _, theta := range []float64{params.Theta1 / 2, params.Theta2, 2 * params.Theta2} {
				// The sweep spent φ; AnalyzeTheta starts from the same
				// nominal partition, so dense still indexes it.
				over, under, phiOver, phiUnder = s.partition(d, world.ServiceCapacities())
				ta, err := s.AnalyzeTheta(d, theta)
				if err != nil {
					t.Fatal(err)
				}
				want := denseStep(dense, theta, over, under, phiOver, phiUnder)
				res, err := s.referenceNetwork(refG, want, phiOver, phiUnder, nil, false).g.MinCostMaxFlow(netSource, netSink)
				if err != nil {
					t.Fatal(err)
				}
				if ta.DirectEdges != want.directPairs || ta.Flow != res.Flow {
					t.Fatalf("%s AnalyzeTheta(%v): %d edges carry %d, dense scan %d carry %d",
						name, theta, ta.DirectEdges, ta.Flow, want.directPairs, res.Flow)
				}
				dc := s.newDistCache(over, under, max(theta, params.Theta2), par.Workers(0))
				samePairs(t, fmt.Sprintf("%s AnalyzeTheta(%v)", name, theta), s.newStep(theta, over, under, phiOver, phiUnder, dc), want)
			}
		}
	}
	for step, theta := range thetas {
		if admitted[step] == 0 {
			t.Errorf("θ=%v admits no pair in any case: an empty network exercises nothing", theta)
		}
	}
}
