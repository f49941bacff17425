package core

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// checkPlanInvariants verifies every constraint a plan must satisfy
// against its demand: per-pair flows realised by matching redirects,
// redirect volume bounded by per-video demand, placement bounded by
// cache capacity, redirected videos placed at their targets, inflow
// bounded by target slack, outflow + overflow accounting for the whole
// surplus, and MovedFlow <= MaxFlow.
func checkPlanInvariants(t *testing.T, w *trace.World, d *Demand, plan *Plan) {
	t.Helper()
	m := len(w.Hotspots)

	outflow := make([]int64, m)
	inflow := make([]int64, m)
	for _, f := range plan.Flows {
		if f.Amount <= 0 {
			t.Fatalf("non-positive flow %+v", f)
		}
		outflow[f.From] += f.Amount
		inflow[f.To] += f.Amount
	}

	// Redirects must sum exactly to the realised flows and never exceed
	// the source's per-video demand.
	redirectPair := make(map[[2]int]int64)
	redirectVideo := make(map[[2]int64]int64) // (source, video) → count
	for _, r := range plan.Redirects {
		if r.Count <= 0 {
			t.Fatalf("non-positive redirect %+v", r)
		}
		redirectPair[[2]int{int(r.From), int(r.To)}] += r.Count
		redirectVideo[[2]int64{int64(r.From), int64(r.Video)}] += r.Count
		if !plan.Placement.Contains(int(r.To), int(r.Video)) {
			t.Fatalf("redirect %+v but video not placed at target", r)
		}
	}
	for _, f := range plan.Flows {
		if got := redirectPair[[2]int{int(f.From), int(f.To)}]; got != f.Amount {
			t.Fatalf("flow %d→%d amount %d but redirects sum to %d", f.From, f.To, f.Amount, got)
		}
	}
	for key, cnt := range redirectVideo {
		if lam := d.Count(int(key[0]), trace.VideoID(key[1])); cnt > lam {
			t.Fatalf("hotspot %d video %d redirects %d exceed demand %d", key[0], key[1], cnt, lam)
		}
	}

	var moved int64
	for h := 0; h < m; h++ {
		if got, cache := plan.Placement.Len(h), w.Hotspots[h].CacheCapacity; got > cache {
			t.Fatalf("hotspot %d placement %d exceeds cache %d", h, got, cache)
		}
		lambda := d.Totals[h]
		svc := w.Hotspots[h].ServiceCapacity
		switch {
		case lambda > svc: // overloaded
			if inflow[h] != 0 {
				t.Fatalf("overloaded hotspot %d received %d inflow", h, inflow[h])
			}
			if outflow[h]+plan.OverflowToCDN[h] != lambda-svc {
				t.Fatalf("hotspot %d surplus %d != outflow %d + overflow %d",
					h, lambda-svc, outflow[h], plan.OverflowToCDN[h])
			}
		case lambda < svc: // under-utilised
			if outflow[h] != 0 {
				t.Fatalf("under-utilised hotspot %d sent %d outflow", h, outflow[h])
			}
			if inflow[h] > svc-lambda {
				t.Fatalf("hotspot %d inflow %d exceeds slack %d", h, inflow[h], svc-lambda)
			}
			if plan.OverflowToCDN[h] != 0 {
				t.Fatalf("under-utilised hotspot %d has overflow %d", h, plan.OverflowToCDN[h])
			}
		default:
			if inflow[h] != 0 || outflow[h] != 0 || plan.OverflowToCDN[h] != 0 {
				t.Fatalf("balanced hotspot %d has flows in=%d out=%d overflow=%d",
					h, inflow[h], outflow[h], plan.OverflowToCDN[h])
			}
		}
		moved += outflow[h]
	}
	if moved > plan.Stats.MaxFlow {
		t.Fatalf("realised flow %d exceeds movable workload %d", moved, plan.Stats.MaxFlow)
	}
	if plan.Stats.MovedFlow > plan.Stats.MaxFlow {
		t.Fatalf("MovedFlow %d exceeds MaxFlow %d", plan.Stats.MovedFlow, plan.Stats.MaxFlow)
	}
	if moved+plan.Stats.UnrealizedFlow != plan.Stats.MovedFlow {
		t.Fatalf("realised %d + unrealised %d != moved %d",
			moved, plan.Stats.UnrealizedFlow, plan.Stats.MovedFlow)
	}
}

func scheduleOK(t *testing.T, w *trace.World, p Params, d *Demand) *Plan {
	t.Helper()
	s, err := New(w, p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plan, err := s.ScheduleRound(d, Constraints{})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	checkPlanInvariants(t, w, d, plan)
	return plan
}

func TestBalancingMovesSurplusToNeighbour(t *testing.T) {
	// Hotspot 0 has 15 requests for capacity 10; hotspot 1 (1 km away)
	// has 2 requests and slack 8. The 5 surplus units fit within θ2.
	w := lineWorld(2, 1.0, 10, 50)
	d := NewDemand(2)
	for v := trace.VideoID(0); v < 5; v++ {
		d.Add(0, v, 3) // 15 requests over 5 videos
	}
	d.Add(1, 100, 2)

	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Stats.MaxFlow != 5 {
		t.Errorf("MaxFlow = %d, want 5", plan.Stats.MaxFlow)
	}
	if plan.Stats.MovedFlow != 5 {
		t.Errorf("MovedFlow = %d, want 5", plan.Stats.MovedFlow)
	}
	if plan.OverflowToCDN[0] != 0 {
		t.Errorf("OverflowToCDN[0] = %d, want 0", plan.OverflowToCDN[0])
	}
	var total int64
	for _, r := range plan.Redirects {
		if r.From != 0 || r.To != 1 {
			t.Errorf("unexpected redirect %+v", r)
		}
		total += r.Count
	}
	if total != 5 {
		t.Errorf("redirected %d units, want 5", total)
	}
}

func TestBalancingRespectsTheta(t *testing.T) {
	// The only slack hotspot is 5 km away — beyond θ2 = 1.5 km — so the
	// surplus must fall back to the CDN.
	w := lineWorld(2, 5.0, 10, 50)
	d := NewDemand(2)
	d.Add(0, 1, 18)

	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Stats.MovedFlow != 0 {
		t.Errorf("MovedFlow = %d, want 0 (target beyond θ2)", plan.Stats.MovedFlow)
	}
	if plan.OverflowToCDN[0] != 8 {
		t.Errorf("OverflowToCDN[0] = %d, want 8", plan.OverflowToCDN[0])
	}
	if len(plan.Redirects) != 0 {
		t.Errorf("redirects = %v, want none", plan.Redirects)
	}
}

func TestBalancingPrefersNearTarget(t *testing.T) {
	// Two slack hotspots at 1 km and 1.4 km; surplus 3 fits entirely in
	// the nearer one, which min-cost flow must prefer.
	hotspots := []trace.Hotspot{
		{ID: 0, Location: geo.Point{X: 0, Y: 0}, ServiceCapacity: 10, CacheCapacity: 50},
		{ID: 1, Location: geo.Point{X: 1.0, Y: 0}, ServiceCapacity: 10, CacheCapacity: 50},
		{ID: 2, Location: geo.Point{X: 0, Y: 1.4}, ServiceCapacity: 10, CacheCapacity: 50},
	}
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -2, MinY: -2, MaxX: 3, MaxY: 3},
		Hotspots:      hotspots,
		NumVideos:     100,
		CDNDistanceKm: 20,
	}
	d := NewDemand(3)
	d.Add(0, 1, 13)
	d.Add(1, 2, 5)
	d.Add(2, 3, 5)

	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Stats.MovedFlow != 3 {
		t.Fatalf("MovedFlow = %d, want 3", plan.Stats.MovedFlow)
	}
	for _, f := range plan.Flows {
		if f.To != 1 {
			t.Errorf("flow went to hotspot %d, want nearer hotspot 1 (%+v)", f.To, f)
		}
	}
}

func TestAblationVariantsProduceValidPlans(t *testing.T) {
	w := lineWorld(6, 0.7, 8, 30)
	d := randomDemand(w, 200, 60, 3)

	variants := map[string]Params{
		"default":      DefaultParams(),
		"no guides":    func() Params { p := DefaultParams(); p.DisableGuides = true; return p }(),
		"single shot":  func() Params { p := DefaultParams(); p.SingleShotTheta = true; return p }(),
		"literal cost": func() Params { p := DefaultParams(); p.GuideCost = GuideCostAvgCapacity; return p }(),
		"bpeak":        func() Params { p := DefaultParams(); p.BPeak = 10; return p }(),
	}
	for name, params := range variants {
		t.Run(name, func(t *testing.T) {
			scheduleOK(t, w, params, d)
		})
	}
}

func TestBPeakBoundsLocalFill(t *testing.T) {
	// No overload at all: every replica comes from the greedy local
	// fill, which BPeak must cap.
	w := lineWorld(3, 1.0, 100, 50)
	d := NewDemand(3)
	for h := trace.HotspotID(0); h < 3; h++ {
		for v := trace.VideoID(0); v < 10; v++ {
			d.Add(h, v+trace.VideoID(h)*10, 2)
		}
	}
	p := DefaultParams()
	p.BPeak = 7
	plan := scheduleOK(t, w, p, d)
	if plan.Stats.Replicas > 7 {
		t.Errorf("Replicas = %d, want <= BPeak 7", plan.Stats.Replicas)
	}
}

func TestDeterministicPlans(t *testing.T) {
	w := lineWorld(8, 0.6, 8, 30)
	d := randomDemand(w, 300, 80, 7)
	s1, err := New(w, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(w, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s1.ScheduleRound(d, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.ScheduleRound(d.Clone(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Redirects) != len(p2.Redirects) || len(p1.Flows) != len(p2.Flows) {
		t.Fatalf("plans differ in size: %d/%d redirects, %d/%d flows",
			len(p1.Redirects), len(p2.Redirects), len(p1.Flows), len(p2.Flows))
	}
	for i := range p1.Redirects {
		if p1.Redirects[i] != p2.Redirects[i] {
			t.Fatalf("redirect %d differs: %+v vs %+v", i, p1.Redirects[i], p2.Redirects[i])
		}
	}
	if !p1.Placement.Equal(&p2.Placement) {
		t.Fatal("placements differ")
	}
}

func TestRandomDemandInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		w := lineWorld(n, 0.3+rng.Float64(), int64(5+rng.Intn(10)), 5+rng.Intn(40))
		d := randomDemand(w, 50+rng.Intn(400), 20+rng.Intn(100), rng.Int63())
		scheduleOK(t, w, DefaultParams(), d)
	}
}

func TestAnalyzeThetaMonotone(t *testing.T) {
	w := lineWorld(10, 0.5, 6, 30)
	d := randomDemand(w, 300, 50, 5)
	s, err := New(w, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var prevEdges int
	var prevFlow int64
	for _, theta := range []float64{0, 0.5, 1, 2, 4, 8} {
		ta, err := s.AnalyzeTheta(d, theta)
		if err != nil {
			t.Fatalf("AnalyzeTheta(%v): %v", theta, err)
		}
		if ta.DirectEdges < prevEdges {
			t.Errorf("edges decreased at θ=%v: %d < %d", theta, ta.DirectEdges, prevEdges)
		}
		if ta.Flow < prevFlow {
			t.Errorf("flow decreased at θ=%v: %d < %d", theta, ta.Flow, prevFlow)
		}
		if ta.FlowFraction < 0 || ta.FlowFraction > 1+1e-9 {
			t.Errorf("flow fraction %v outside [0,1]", ta.FlowFraction)
		}
		prevEdges, prevFlow = ta.DirectEdges, ta.Flow
	}
	if _, err := s.AnalyzeTheta(d, -1); err == nil {
		t.Error("AnalyzeTheta(negative) succeeded")
	}
	if _, err := s.AnalyzeTheta(NewDemand(1), 1); err == nil {
		t.Error("AnalyzeTheta(size mismatch) succeeded")
	}
}

// randomDemand synthesises demand with a Zipf-ish skew over videos and
// hotspot loads proportional to position (so some overload, some not).
func randomDemand(w *trace.World, requests, videos int, seed int64) *Demand {
	rng := rand.New(rand.NewSource(seed))
	d := NewDemand(len(w.Hotspots))
	for r := 0; r < requests; r++ {
		// Squared draw biases load toward low-index hotspots.
		h := rng.Intn(len(w.Hotspots))
		if rng.Intn(2) == 0 {
			h = h * h / len(w.Hotspots)
		}
		v := rng.Intn(videos)
		if rng.Intn(2) == 0 {
			v = v * v / videos
		}
		d.Add(trace.HotspotID(h), trace.VideoID(v), 1)
	}
	d.Fold()
	return d
}

// TestContentClustersMatchReference holds the matrix path of
// contentClusters (signature runs through RankSpan.Fill into
// AgglomerativeInPlace) to the per-pair reference — JaccardDistance per
// pair into cluster.AgglomerativeMatrix — on demand shaped like the serving
// benchmark's city fleet: ~7-video signatures, one video in more than
// half of them, a few hotspots with no demand at all.
func TestContentClustersMatchReference(t *testing.T) {
	const m = 150
	rng := rand.New(rand.NewSource(17))
	d := NewDemand(m)
	for h := 0; h < m; h++ {
		if h%40 == 7 {
			continue // an idle hotspot: empty signature
		}
		if rng.Intn(3) > 0 {
			d.Add(trace.HotspotID(h), 0, 1000)
		}
		// 35 distinct videos, popular ones drawn from a small shared
		// head so neighbours overlap: the top 20 % is 7 of them.
		for len(d.row(h)) < 35 {
			v := 1 + rng.Intn(12)
			if rng.Intn(4) == 0 {
				v = 13 + rng.Intn(900)
			}
			d.Add(trace.HotspotID(h), trace.VideoID(v), int64(1+rng.Intn(50)))
		}
	}
	params := DefaultParams()
	s, err := New(lineWorld(m, 0.3, 5, 8), params)
	if err != nil {
		t.Fatal(err)
	}
	clusterOf, nClusters, err := s.contentClusters(d)
	if err != nil {
		t.Fatal(err)
	}

	sets := make([]similarity.Set, m)
	holdTop, empty := 0, 0
	for h := range sets {
		if sets[h], err = similarity.TopFraction(d.VideoCounts(h), params.TopFraction); err != nil {
			t.Fatal(err)
		}
		if sets[h].Contains(0) {
			holdTop++
		}
		if sets[h].Len() == 0 {
			empty++
		}
	}
	if holdTop*2 <= m || empty < 3 {
		t.Fatalf("demand lost its shape: video 0 in %d of %d signatures, %d empty", holdTop, m, empty)
	}
	dist := make([][]float64, m)
	for i := range dist {
		dist[i] = make([]float64, m)
		for j := range dist[i] {
			dist[i][j] = similarity.JaccardDistance(sets[i], sets[j])
		}
	}
	dendro, err := cluster.AgglomerativeMatrix(dist, params.Linkage)
	if err != nil {
		t.Fatal(err)
	}
	groups := dendro.Cut(params.ClusterCut)
	if nClusters != len(groups) || nClusters < 2 || nClusters >= m {
		t.Fatalf("contentClusters found %d clusters, reference %d (of %d hotspots)", nClusters, len(groups), m)
	}
	for k, grp := range groups {
		for _, h := range grp {
			if clusterOf[h] != k {
				t.Fatalf("hotspot %d in cluster %d, reference %d", h, clusterOf[h], k)
			}
		}
	}
}
