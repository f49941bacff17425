package core

import (
	"maps"
	"testing"

	"repro/internal/par"
)

// BenchmarkBuildNetwork measures steady-state network construction on
// the round arena — the per-θ-iteration cost of the sweep before any
// solve: the step's pairs and components, then every component's
// graph, with the graph, candidate rows, and node tables all reused.
func BenchmarkBuildNetwork(b *testing.B) {
	world := lineWorld(64, 0.2, 5, 8)
	d := spreadDemand(64, 20, 6)
	params := DefaultParams()
	params.Workers = 1
	s, err := New(world, params)
	if err != nil {
		b.Fatal(err)
	}
	clusterOf, _, err := s.contentClusters(d)
	if err != nil {
		b.Fatal(err)
	}
	over, under, phiOver, phiUnder := s.partition(d, s.world.ServiceCapacities())
	dc := s.newDistCache(over, under, params.Theta2, par.Workers(params.Workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.newStep(params.Theta2, over, under, phiOver, phiUnder, dc)
		if st.directPairs == 0 {
			b.Fatal("empty network")
		}
		for c := range st.components() {
			s.buildNetwork(st, c, phiOver, phiUnder, clusterOf, true)
		}
	}
}

// BenchmarkScheduleRoundSteady measures rounds 2…N of one scheduler at
// the serving benchmark's city_sched size — the first round, which
// allocates the arena, its m×m rank span and its key table, runs
// before the timer. B/op is the steady-state figure behind the bench
// harness's core.round_alloc_mb: signatures, the over×under distance
// cache, the placement runs and the plan. A rank span allocated per
// round would add 2·1240² = 3.1 MB to it, and as much again for a chain
// that copies.
//
// Its lineWorld (hotspots 0.1 km apart on a line) is one big component
// from the sweep's first step on (one holds 324 of the 344 targets with
// pairs at θ1), so it cannot show what solving one component at a time
// saves; BenchmarkBalance on the serving benchmark's worlds does.
func BenchmarkScheduleRoundSteady(b *testing.B) {
	const m = 1240
	world := lineWorld(m, 0.1, 30, 40)
	slots := []*Demand{
		randomDemand(world, 50000, 15000, 1),
		randomDemand(world, 50000, 15000, 2),
	}
	s, err := New(world, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.ScheduleRound(slots[1], Constraints{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := s.ScheduleRound(slots[i%len(slots)], Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		if plan.Stats.Clusters == 0 {
			b.Fatal("round did not cluster")
		}
	}
}

// BenchmarkBalance times the balance phase alone — the round's θ2
// candidate rows, the θ sweep and the residual pass, as runSweep runs
// them in a round — on the serving benchmark's worlds at seed 1
// (benchShapedTrace: 310 hotspots as edge_*, 1,240 as city_sched). Op i
// sweeps slot i mod slots from its nominal partition, with that slot's
// content clusters computed before the timer. paths/op is the MCMF
// augmenting paths of an op and components/op the connected components
// its step networks were solved as.
func BenchmarkBalance(b *testing.B) {
	for _, wl := range []struct {
		name                       string
		fleet, slotRequests, slots int
	}{{"m310", 1, 25000, 16}, {"m1240", 4, 50000, 10}} {
		b.Run(wl.name, func(b *testing.B) {
			world, tr := benchShapedTrace(b, wl.fleet, wl.slotRequests, wl.slots, 1)
			s, err := New(world, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			svc := world.ServiceCapacities()
			type slotIn struct {
				over, under       []int
				phiOver, phiUnder []int64
				clusterOf         []int
			}
			var ins []slotIn
			for _, d := range slotDemands(b, world, tr) {
				s.ar.table.built = false // what ScheduleRound does on entry
				clusterOf, _, err := s.contentClusters(d)
				if err != nil {
					b.Fatal(err)
				}
				over, under, phiOver, phiUnder := s.partition(d, svc)
				ins = append(ins, slotIn{over, under, phiOver, phiUnder, clusterOf})
			}
			var components int64
			stepCheck = func(_ *Scheduler, st *stepNet, _, _ []int64, _ []int, _ bool) {
				components += int64(st.components())
			}
			defer func() { stepCheck = nil }()
			phiOver, phiUnder := make([]int64, len(svc)), make([]int64, len(svc))
			var paths int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := ins[i%len(ins)]
				copy(phiOver, in.phiOver)
				copy(phiUnder, in.phiUnder)
				stats := partitionStats(in.over, in.under, phiOver, phiUnder)
				ro := newRoundObs(s.params)
				paths += s.runSweep(in.over, in.under, phiOver, phiUnder, in.clusterOf, s.ar.emptyFlows(), &stats, &ro)
				if stats.MovedFlow == 0 {
					b.Fatal("the sweep moved nothing")
				}
			}
			b.ReportMetric(float64(paths)/float64(b.N), "paths/op")
			b.ReportMetric(float64(components)/float64(b.N), "components/op")
		})
	}
}

// roundInputs are the per-layer benchmarks' inputs:
// BenchmarkScheduleRoundSteady's 1,240-hotspot world and demand, and a
// 310-hotspot twin.
var roundInputs = []struct {
	name                string
	m, requests, videos int
}{{"m1240", 1240, 50000, 15000}, {"m310", 310, 12500, 15000}}

// BenchmarkDemandTable times the round demand table's build — the copy
// of the folded rows and the rank view's counting passes — on
// roundInputs.
func BenchmarkDemandTable(b *testing.B) {
	for _, bc := range roundInputs {
		b.Run(bc.name, func(b *testing.B) {
			world := lineWorld(bc.m, 0.1, 30, 40)
			d := randomDemand(world, bc.requests, bc.videos, 1)
			s, err := New(world, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ar.table.built = false // what ScheduleRound does on entry
				if t := s.demandTable(d); len(t.byRank) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkContentClusters times the cluster phase on a built table —
// the signature runs, the Jaccard fill and the chain — on roundInputs.
func BenchmarkContentClusters(b *testing.B) {
	for _, bc := range roundInputs {
		b.Run(bc.name, func(b *testing.B) {
			world := lineWorld(bc.m, 0.1, 30, 40)
			d := randomDemand(world, bc.requests, bc.videos, 1)
			s, err := New(world, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			s.ar.table.built = false
			s.demandTable(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, n, err := s.contentClusters(d); err != nil || n < 2 {
					b.Fatalf("%d clusters (err %v)", n, err)
				}
			}
		})
	}
}

// BenchmarkReplicate times Procedure 1 alone — demand table, stage A,
// fill, placement rows — on the flows of a real θ sweep, on
// roundInputs.
func BenchmarkReplicate(b *testing.B) {
	for _, bc := range roundInputs {
		b.Run(bc.name, func(b *testing.B) {
			world := lineWorld(bc.m, 0.1, 30, 40)
			d := randomDemand(world, bc.requests, bc.videos, 1)
			s, err := New(world, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			plan, err := s.ScheduleRound(d, Constraints{})
			if err != nil {
				b.Fatal(err)
			}
			if len(plan.Redirects) == 0 {
				b.Fatal("the sweep realised no flow")
			}
			flows := maps.Clone(s.ar.flows)
			svc, cache := world.ServiceCapacities(), world.CacheCapacities()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ar.table.built = false // what ScheduleRound does on entry
				redirects, _, _, _, err := s.replicate(d, flows, svc, cache)
				if err != nil || len(redirects) != len(plan.Redirects) {
					b.Fatalf("%d redirects (err %v), the round had %d", len(redirects), err, len(plan.Redirects))
				}
			}
		})
	}
}
