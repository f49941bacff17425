package core

import (
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/trace"
)

// mustPlan builds a scheduler with the params and schedules the demand.
func mustPlan(t *testing.T, w *trace.World, p Params, d *Demand) *Plan {
	t.Helper()
	s, err := New(w, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plan, err := s.ScheduleRound(d.Clone(), Constraints{})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	return plan
}

// TestScheduleRunTwiceIdentical locks in deterministic network
// construction: scheduling the same demand twice — on the same
// scheduler and on a freshly built one — must produce byte-identical
// plans (flows, redirects, placement, overflow, and stats), not merely
// equivalent ones. Before candidate/cluster iteration was forced into
// sorted order this could diverge through Go's randomised map
// iteration feeding the MCMF solver edges in different orders.
func TestScheduleRunTwiceIdentical(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		w := lineWorld(12, 0.4, 55, 30)
		d := randomDemand(w, 500, 120, seed)

		s, err := New(w, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.ScheduleRound(d.Clone(), Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.ScheduleRound(d.Clone(), Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("seed %d: same scheduler produced different plans:\n%+v\nvs\n%+v", seed, first, again)
		}
		fresh := mustPlan(t, w, DefaultParams(), d)
		if !reflect.DeepEqual(first, fresh) {
			t.Fatalf("seed %d: fresh scheduler produced a different plan:\n%+v\nvs\n%+v", seed, first, fresh)
		}
	}
}

// TestWorkersPlanEquality asserts the Workers knob never changes the
// answer: for seeded worlds, every worker count yields the exact plan
// the serial path computes. Run under -race this also exercises the
// distance-cache, Jaccard-matrix, and candidate-generation fan-outs
// for data races.
func TestWorkersPlanEquality(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		w := lineWorld(16, 0.35, 60, 40)
		d := randomDemand(w, 800, 150, seed)

		serial := DefaultParams()
		serial.Workers = 1
		want := mustPlan(t, w, serial, d)

		for _, workers := range []int{0, 2, 3, 8} {
			p := DefaultParams()
			p.Workers = workers
			got := mustPlan(t, w, p, d)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: Workers=%d plan differs from serial:\n%+v\nvs\n%+v",
					seed, workers, got, want)
			}
		}
	}
}

// TestSweepThetas pins the θ schedule to the closed form
// Theta1 + k·DeltaD. The accumulation it replaced (theta += DeltaD)
// drifts linearly with the iteration count and could miss the final
// θ2 round entirely on long sweeps.
func TestSweepThetas(t *testing.T) {
	p := DefaultParams() // 0.5 → 1.5 step 0.5
	got := sweepThetas(p)
	want := []float64{0.5, 1.0, 1.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweepThetas(default) = %v, want %v", got, want)
	}

	// Long sweep where repeated accumulation of 0.1 demonstrably
	// drifts: the closed form must still emit exactly K+1 values and
	// land exactly on Theta2.
	p.Theta1, p.Theta2, p.DeltaD = 0, 1000, 0.1
	got = sweepThetas(p)
	if len(got) != 10001 {
		t.Fatalf("long sweep emitted %d values, want 10001", len(got))
	}
	if got[0] != 0 || got[len(got)-1] != 1000 {
		t.Fatalf("long sweep endpoints %v..%v, want 0..1000", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sweep not strictly increasing at %d: %v <= %v", i, got[i], got[i-1])
		}
		if got[i] > p.Theta2 {
			t.Fatalf("sweep value %v exceeds Theta2", got[i])
		}
	}
	// The old accumulation loop for comparison: it ends up off by the
	// accumulated rounding error, which is what the closed form fixes.
	acc := 0.0
	for i := 0; i < 10000; i++ {
		acc += 0.1
	}
	if acc == 1000 {
		t.Skip("platform accumulates 0.1 exactly; drift scenario not reproducible")
	}

	// A range that is not a whole number of steps stops at the last
	// step below Theta2 (the residual Gd pass covers the remainder).
	p.Theta1, p.Theta2, p.DeltaD = 0.5, 1.4, 0.5
	got = sweepThetas(p)
	want = []float64{0.5, 1.0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial sweep = %v, want %v", got, want)
	}

	// SingleShotTheta collapses the sweep to one θ2 round.
	p = DefaultParams()
	p.SingleShotTheta = true
	if got := sweepThetas(p); !reflect.DeepEqual(got, []float64{p.Theta2}) {
		t.Fatalf("single-shot sweep = %v, want [%v]", got, p.Theta2)
	}
}

// TestDistanceCalcsIndependentOfIterations proves the distance cache
// does its job: shrinking DeltaD multiplies the θ iterations but the
// number of pairwise distance evaluations stays |Hs|·|Ht|.
func TestDistanceCalcsIndependentOfIterations(t *testing.T) {
	w := lineWorld(14, 0.4, 55, 30)
	d := randomDemand(w, 600, 120, 5)

	coarse := DefaultParams() // 3 iterations
	fine := DefaultParams()
	fine.DeltaD = 0.05 // 21 iterations

	pc := mustPlan(t, w, coarse, d)
	pf := mustPlan(t, w, fine, d)

	if pf.Stats.Iterations <= pc.Stats.Iterations {
		t.Fatalf("fine sweep ran %d iterations, coarse %d; expected more",
			pf.Stats.Iterations, pc.Stats.Iterations)
	}
	wantCalcs := int64(pc.Stats.Overloaded) * int64(pc.Stats.Underutilized)
	if pc.Stats.DistanceCalcs != wantCalcs {
		t.Errorf("coarse DistanceCalcs = %d, want |Hs|·|Ht| = %d", pc.Stats.DistanceCalcs, wantCalcs)
	}
	if pf.Stats.DistanceCalcs != pc.Stats.DistanceCalcs {
		t.Errorf("DistanceCalcs scales with iterations: %d (x%d iters) vs %d (x%d iters)",
			pf.Stats.DistanceCalcs, pf.Stats.Iterations, pc.Stats.DistanceCalcs, pc.Stats.Iterations)
	}
}

// TestStatsAccumulateAcrossIterations pins the DirectEdges/GuideNodes
// contract with a hand-built two-iteration sweep whose per-iteration
// counts are known exactly: both stats must accumulate over every θ
// iteration. DirectEdges used to report only the final iteration
// (overwritten each round) while GuideNodes summed, so the old code
// would report 1 here instead of 2.
func TestStatsAccumulateAcrossIterations(t *testing.T) {
	// h0 overloaded (surplus 10); h1 within θ1 with slack 4; h2 only
	// within θ2 with slack 6. Iteration θ=0.5 enumerates exactly
	// <h0,h1> and drains h1; iteration θ=1.0 enumerates exactly
	// <h0,h2> (h1 is exhausted and skipped).
	w := &trace.World{
		Bounds: geo.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 1},
		Hotspots: []trace.Hotspot{
			{ID: 0, Location: geo.Point{X: 0, Y: 0}, ServiceCapacity: 5, CacheCapacity: 30},
			{ID: 1, Location: geo.Point{X: 0.3, Y: 0}, ServiceCapacity: 5, CacheCapacity: 30},
			{ID: 2, Location: geo.Point{X: 0.75, Y: 0}, ServiceCapacity: 7, CacheCapacity: 30},
		},
		NumVideos:     100,
		CDNDistanceKm: 20,
	}
	d := NewDemand(3)
	for v := trace.VideoID(0); v < 5; v++ {
		d.Add(0, v, 3) // 15 requests: surplus 10
	}
	d.Add(1, 50, 1) // slack 4
	d.Add(2, 60, 1) // slack 6

	p := DefaultParams()
	p.Theta1, p.Theta2, p.DeltaD = 0.5, 1.0, 0.5

	plan := mustPlan(t, w, p, d)
	st := plan.Stats
	if st.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2 (θ=0.5 and θ=1.0)", st.Iterations)
	}
	if st.MovedFlow != 10 {
		t.Fatalf("MovedFlow = %d, want 10", st.MovedFlow)
	}
	if st.DirectEdges != 2 {
		t.Errorf("DirectEdges = %d, want 2 (one pair per iteration, accumulated)", st.DirectEdges)
	}
	if st.GuideNodes != 2 {
		t.Errorf("GuideNodes = %d, want 2 (one guide per iteration, accumulated)", st.GuideNodes)
	}
	if st.DistanceCalcs != 2 {
		t.Errorf("DistanceCalcs = %d, want |Hs|·|Ht| = 2", st.DistanceCalcs)
	}
}
