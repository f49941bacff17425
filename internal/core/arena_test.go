package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// spreadDemand overloads the first k hotspots and leaves the rest
// under-utilised, with overlapping video sets so clustering and
// replication have real work.
func spreadDemand(n, k int, perOver int64) *Demand {
	d := NewDemand(n)
	for h := 0; h < k; h++ {
		for v := 0; v < 12; v++ {
			d.Add(trace.HotspotID(h), trace.VideoID(v+h), perOver)
		}
	}
	for h := k; h < n; h++ {
		d.Add(trace.HotspotID(h), trace.VideoID(h), 1)
	}
	return d
}

// TestArenaReusePlansIdentical locks the arena against cross-round
// leakage: the same demand scheduled on a long-lived scheduler —
// before and after rounds on a different demand — must produce a plan
// deep-equal to a fresh scheduler's, canonical bytes included, for both
// guide modes. Nothing of the round in between — its distance matrix,
// which the chain leaves half-consumed in the arena, its clusters, its
// flow network — may reach the next one, whether that round clustered
// (B) or took the MaxFlow == 0 fast path and never touched the matrix
// (idle). The demand table is per round and never per pointer: one
// *Demand overwritten in place between rounds — A, then B, then idle,
// then A again — is scheduled like the demand it currently holds, on
// the full route, the fast path and a delta-mode scheduler's routes.
func TestArenaReusePlansIdentical(t *testing.T) {
	world := lineWorld(12, 0.4, 6, 8)
	dA := spreadDemand(12, 3, 4)
	dB := spreadDemand(12, 5, 7)
	dIdle := NewDemand(12)
	for h := 0; h < 12; h++ {
		dIdle.Add(trace.HotspotID(h), trace.VideoID(h%3), 2)
	}
	for _, disableGuides := range []bool{false, true} {
		params := DefaultParams()
		params.DisableGuides = disableGuides

		fresh := func(d *Demand) *Plan {
			s, err := New(world, params)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.ScheduleRound(d, Constraints{})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		wantA, wantB, wantIdle := fresh(dA), fresh(dB), fresh(dIdle)
		if wantIdle.Stats.MaxFlow != 0 || wantIdle.Stats.Clusters != 0 {
			t.Fatalf("idle demand left the fast path: %+v", wantIdle.Stats)
		}
		if !disableGuides && (wantA.Stats.Clusters == 0 || wantB.Stats.Clusters == 0) {
			t.Fatalf("A and B must cluster: %d and %d clusters", wantA.Stats.Clusters, wantB.Stats.Clusters)
		}

		s, err := New(world, params)
		if err != nil {
			t.Fatal(err)
		}
		dMut := NewDemand(12)
		holds := func(src *Demand) func() {
			return func() {
				copy(dMut.Totals, src.Totals)
				for h := range dMut.rows {
					r := &dMut.rows[h]
					r.entries = append(r.entries[:0], src.row(h)...)
					r.folded = len(r.entries)
				}
			}
		}
		sequence := []struct {
			name string
			prep func() // run before the round, nil for none
			d    *Demand
			want *Plan
		}{
			{"A-first", nil, dA, wantA},
			{"B-interleaved", nil, dB, wantB},
			{"A-again", nil, dA, wantA},
			{"B-again", nil, dB, wantB},
			{"idle-fast-path", nil, dIdle, wantIdle},
			{"A-after-idle", nil, dA, wantA},
			{"mutable-holds-A", holds(dA), dMut, wantA},
			{"mutated-in-place-to-B", holds(dB), dMut, wantB},
			{"mutated-in-place-to-idle", holds(dIdle), dMut, wantIdle},
			{"mutated-in-place-to-A", holds(dA), dMut, wantA},
		}
		for _, step := range sequence {
			if step.prep != nil {
				step.prep()
			}
			got, err := s.ScheduleRound(step.d, Constraints{})
			if err != nil {
				t.Fatalf("guides=%v %s: %v", !disableGuides, step.name, err)
			}
			if !reflect.DeepEqual(got, step.want) {
				t.Errorf("guides=%v %s: reused-arena plan diverges from fresh scheduler", !disableGuides, step.name)
			}
			if !bytes.Equal(got.Canonical(), step.want.Canonical()) {
				t.Errorf("guides=%v %s: reused-arena canonical bytes diverge from fresh scheduler", !disableGuides, step.name)
			}
		}

		// The same on a delta-mode scheduler, whose warm rounds restore
		// the sweep or run it without entering scheduleFull. Its
		// contract forbids mutating a retained *Demand, so every round
		// gets its own copy; the table must still follow the round.
		params.DeltaThreshold = 1
		params.Obs = obs.NewRegistry()
		sd, err := New(world, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range sequence {
			if step.prep != nil {
				step.prep()
			}
			got, err := sd.ScheduleRound(step.d.Clone(), Constraints{})
			if err != nil {
				t.Fatalf("guides=%v delta %s: %v", !disableGuides, step.name, err)
			}
			if !bytes.Equal(got.Canonical(), step.want.Canonical()) {
				t.Errorf("guides=%v delta %s: canonical bytes diverge from fresh scheduler", !disableGuides, step.name)
			}
		}
		if got := deltaCount(sd, "rounds"); got < 5 {
			t.Errorf("guides=%v: only %d of %d delta-mode rounds took the delta path", !disableGuides, got, len(sequence))
		}
	}
}

// TestRoundSteadyStateAllocatesNoMatrix pins the arena's distance
// matrix, a uint16 rank span: once a warm-up round has allocated its
// 2·m² bytes, a whole ScheduleRound — signatures, fill, chain, sweep,
// replication, plan — must allocate less than that again, i.e. nothing
// quadratic in hotspots is allocated per round. The span itself appears
// only when a round first clusters, and the uint32 one never does on a
// matrix of this few distinct distances.
func TestRoundSteadyStateAllocatesNoMatrix(t *testing.T) {
	const m = 600
	world := lineWorld(m, 0.2, 5, 8)
	params := DefaultParams()
	params.Workers = 1
	s, err := New(world, params)
	if err != nil {
		t.Fatal(err)
	}
	if s.ar.span.Narrow != nil || s.ar.span.Wide != nil {
		t.Fatal("distance matrix allocated before any round clustered")
	}
	round := func(seed int64) uint64 {
		d := randomDemand(world, 6000, 2000, seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := s.ScheduleRound(d, Constraints{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.Clusters < 2 || plan.Stats.Iterations == 0 {
			t.Fatalf("round did no clustering or no sweep: %+v", plan.Stats)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const matrixBytes = 2 * m * m
	if warm := round(1); warm < matrixBytes {
		t.Fatalf("warm-up round allocated %d bytes, less than the %d-byte matrix it must create", warm, matrixBytes)
	}
	if len(s.ar.span.Narrow) != m*m || s.ar.span.Wide != nil {
		t.Fatalf("warm-up round left a %d-cell uint16 span and a %d-cell uint32 one, want %d and none", len(s.ar.span.Narrow), len(s.ar.span.Wide), m*m)
	}
	for seed := int64(2); seed <= 4; seed++ {
		if got := round(seed); got >= matrixBytes {
			t.Errorf("steady-state round (seed %d) allocated %d bytes, want < 2·m² = %d", seed, got, matrixBytes)
		}
	}
}

// TestRoundSteadyStateAllocs bounds what a whole warm ScheduleRound
// allocates at the same 600 hotspots. With the demand table, stage A's
// ordinals, the fill's scratch, the signature runs and the θ2 candidate
// rows in the arena, and the placement written as one span of sorted
// runs, what remains is the Jaccard kernel's index, the partition and
// budget vectors, the dendrogram and the plan's own slices — 395 on
// this input, whose demand is folded as slot contexts and frontends
// hand theirs over (994 unfolded: a folded copy per row); 1,582 with a
// map per placement set, 2,816 with a map per content signature and a
// dense distance cache as well, 4,039 with the map-based Procedure 1
// too. The bound sits a quarter above the first.
func TestRoundSteadyStateAllocs(t *testing.T) {
	const m = 600
	world := lineWorld(m, 0.2, 5, 8)
	params := DefaultParams()
	params.Workers = 1
	s, err := New(world, params)
	if err != nil {
		t.Fatal(err)
	}
	d := randomDemand(world, 6000, 2000, 1)
	allocs := testing.AllocsPerRun(5, func() {
		plan, err := s.ScheduleRound(d, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.Clusters < 2 || len(plan.Redirects) == 0 {
			t.Fatalf("round did no clustering or realised no flow: %+v", plan.Stats)
		}
	})
	t.Logf("steady-state ScheduleRound at %d hotspots: %.0f allocations", m, allocs)
	const maxAllocs = 500
	if allocs > maxAllocs {
		t.Errorf("steady-state ScheduleRound allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}

// TestFastPathNoMovableFlow covers the MaxFlow==0 early exit: no
// overloaded hotspots (everything fits) and no under-utilised hotspots
// (everything overloaded) must both skip the sweep machinery while
// still producing a complete plan.
func TestFastPathNoMovableFlow(t *testing.T) {
	t.Run("all-under", func(t *testing.T) {
		world := lineWorld(8, 0.4, 50, 6)
		d := NewDemand(8)
		for h := 0; h < 8; h++ {
			d.Add(trace.HotspotID(h), trace.VideoID(h), 3)
		}
		s, err := New(world, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.ScheduleRound(d, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		st := plan.Stats
		if st.MaxFlow != 0 || st.Iterations != 0 || st.Clusters != 0 || st.DistanceCalcs != 0 {
			t.Errorf("fast path ran sweep machinery: %+v", st)
		}
		if len(plan.Flows) != 0 || len(plan.Redirects) != 0 {
			t.Errorf("fast path moved flow: %d flows, %d redirects", len(plan.Flows), len(plan.Redirects))
		}
		for h, o := range plan.OverflowToCDN {
			if o != 0 {
				t.Errorf("hotspot %d overflows %d with spare capacity", h, o)
			}
		}
		// The greedy local fill must still replicate demanded videos.
		if st.Replicas == 0 {
			t.Error("fast path skipped Procedure 1's local fill")
		}
		for h := 0; h < 8; h++ {
			if !plan.Placement.Contains(h, h) {
				t.Errorf("hotspot %d missing its demanded video in placement", h)
			}
		}
	})

	t.Run("all-over", func(t *testing.T) {
		world := lineWorld(4, 0.4, 2, 6)
		d := NewDemand(4)
		for h := 0; h < 4; h++ {
			d.Add(trace.HotspotID(h), trace.VideoID(h), 10)
		}
		s, err := New(world, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.ScheduleRound(d, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.MaxFlow != 0 || plan.Stats.Iterations != 0 {
			t.Errorf("fast path ran the sweep: %+v", plan.Stats)
		}
		var stranded int64
		for h, o := range plan.OverflowToCDN {
			if o != 8 {
				t.Errorf("hotspot %d overflow %d, want 8", h, o)
			}
			stranded += o
		}
		if plan.Stats.StrandedToCDN != stranded {
			t.Errorf("StrandedToCDN = %d, want %d", plan.Stats.StrandedToCDN, stranded)
		}
	})
}

// TestBuildNetworkSteadyStateAllocs bounds the steady-state allocation
// cost of a step's network construction — gathering its pairs and
// components, then building every component — so arena reuse cannot
// silently rot. The first build sizes the arena; subsequent builds
// should only pay a handful of incidental allocations (closure headers
// and the like), not the ~10 maps/slices the pre-arena path allocated.
func TestBuildNetworkSteadyStateAllocs(t *testing.T) {
	world := lineWorld(24, 0.3, 5, 8)
	d := spreadDemand(24, 8, 6)
	params := DefaultParams()
	params.Workers = 1
	s, err := New(world, params)
	if err != nil {
		t.Fatal(err)
	}
	clusterOf, _, err := s.contentClusters(d)
	if err != nil {
		t.Fatal(err)
	}
	over, under, phiOver, phiUnder := s.partition(d, s.world.ServiceCapacities())
	dc := s.newDistCache(over, under, params.Theta2, par.Workers(params.Workers))
	build := func(useGuides bool) {
		st := s.newStep(params.Theta2, over, under, phiOver, phiUnder, dc)
		for c := range st.components() {
			s.buildNetwork(st, c, phiOver, phiUnder, clusterOf, useGuides)
		}
	}

	for _, useGuides := range []bool{true, false} {
		// Warm the arena at this shape.
		build(useGuides)
		if s.ar.step.directPairs == 0 {
			t.Fatal("test network is empty — nothing exercised")
		}
		allocs := testing.AllocsPerRun(20, func() { build(useGuides) })
		const maxAllocs = 8
		if allocs > maxAllocs {
			t.Errorf("guides=%v: steady-state network construction allocates %v objects per step, want <= %d",
				useGuides, allocs, maxAllocs)
		}
	}
}
