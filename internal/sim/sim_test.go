package sim

import (
	"fmt"
	"reflect"
	"repro/internal/core"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
)

// stubPolicy lets tests hand the simulator arbitrary assignments.
type stubPolicy struct {
	name     string
	schedule func(ctx *SlotContext) (*Assignment, error)
}

func (s stubPolicy) Name() string                                   { return s.name }
func (s stubPolicy) Schedule(ctx *SlotContext) (*Assignment, error) { return s.schedule(ctx) }

var _ Scheduler = stubPolicy{}

// twoHotspotWorld is a minimal world: hotspot 0 at x=0, hotspot 1 at
// x=2, capacities 2 requests / 2 videos each.
func twoHotspotWorld() *trace.World {
	return &trace.World{
		Bounds: geo.Rect{MinX: -1, MinY: -1, MaxX: 3, MaxY: 1},
		Hotspots: []trace.Hotspot{
			{ID: 0, Location: geo.Point{X: 0, Y: 0}, ServiceCapacity: 2, CacheCapacity: 2},
			{ID: 1, Location: geo.Point{X: 2, Y: 0}, ServiceCapacity: 2, CacheCapacity: 2},
		},
		NumVideos:     10,
		CDNDistanceKm: 20,
	}
}

func requestsAt(videos []trace.VideoID, x float64, slot int) []trace.Request {
	out := make([]trace.Request, len(videos))
	for i, v := range videos {
		out[i] = trace.Request{
			ID:       i,
			Video:    v,
			Location: geo.Point{X: x, Y: 0},
			Slot:     slot,
		}
	}
	return out
}

// placementOf lays per-hotspot sets out as placement runs.
func placementOf(sets []similarity.Set) core.PlacementRuns {
	out := core.PlacementRuns{Off: []int{0}}
	for _, set := range sets {
		for _, v := range set.Sorted() {
			out.IDs = append(out.IDs, int32(v))
		}
		out.Off = append(out.Off, len(out.IDs))
	}
	return out
}

func placeEverything(ctx *SlotContext) []similarity.Set {
	m := len(ctx.World.Hotspots)
	placement := make([]similarity.Set, m)
	for h := 0; h < m; h++ {
		placement[h] = similarity.NewSet()
		for v := range ctx.Demand.VideoCounts(h) {
			if placement[h].Len() < ctx.World.Hotspots[h].CacheCapacity {
				placement[h].Add(v)
			}
		}
	}
	return placement
}

func TestRunInputValidation(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1}, 0, 0)}
	nearest := stubPolicy{name: "stub", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	if _, err := Run(nil, tr, nearest, Options{}); err == nil {
		t.Error("Run(nil world) succeeded")
	}
	if _, err := Run(world, nil, nearest, Options{}); err == nil {
		t.Error("Run(nil trace) succeeded")
	}
	if _, err := Run(world, tr, nil, Options{}); err == nil {
		t.Error("Run(nil policy) succeeded")
	}
	badWorld := twoHotspotWorld()
	badWorld.NumVideos = 0
	if _, err := Run(badWorld, tr, nearest, Options{}); err == nil {
		t.Error("Run(invalid world) succeeded")
	}
	badTrace := &trace.Trace{Slots: 1, Requests: []trace.Request{{Video: 99, Slot: 0}}}
	if _, err := Run(world, badTrace, nearest, Options{}); err == nil {
		t.Error("Run(invalid trace) succeeded")
	}
}

func TestRunServesFeasibleTargets(t *testing.T) {
	world := twoHotspotWorld()
	// Two requests at hotspot 0 for video 1: capacity 2, cache fits.
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 1}, 0.1, 0)}
	policy := stubPolicy{name: "local", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	m, err := Run(world, tr, policy, Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.TotalRequests != 2 || m.ServedByHotspot != 2 || m.ServedByCDN != 0 {
		t.Fatalf("metrics = %+v, want everything hotspot-served", m)
	}
	if m.HotspotServingRatio != 1 {
		t.Errorf("serving ratio = %v, want 1", m.HotspotServingRatio)
	}
	// Distance: requests at x=0.1, hotspot at x=0.
	if !almostEqual(m.AvgAccessDistanceKm, 0.1, 1e-9) {
		t.Errorf("avg distance = %v, want 0.1", m.AvgAccessDistanceKm)
	}
	if m.Replicas != 1 {
		t.Errorf("replicas = %d, want 1", m.Replicas)
	}
	if want := 1.0 / 10; !almostEqual(m.ReplicationCost, want, 1e-9) {
		t.Errorf("replication cost = %v, want %v", m.ReplicationCost, want)
	}
	// CDN load = (0 misses + 1 replica) / 2 requests.
	if !almostEqual(m.CDNServerLoad, 0.5, 1e-9) {
		t.Errorf("CDN load = %v, want 0.5", m.CDNServerLoad)
	}
	if m.PerHotspotLoad[0] != 2 || m.PerHotspotServed[0] != 2 {
		t.Errorf("per-hotspot stats wrong: load %v served %v", m.PerHotspotLoad, m.PerHotspotServed)
	}
}

func TestRunEnforcesCapacity(t *testing.T) {
	world := twoHotspotWorld()
	// Three requests at hotspot 0: capacity 2 → one bounced to CDN.
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 1, 1}, 0, 0)}
	policy := stubPolicy{name: "overload", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	m, err := Run(world, tr, policy, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ServedByHotspot != 2 || m.ServedByCDN != 1 || m.Infeasible != 1 {
		t.Fatalf("metrics = served %d, cdn %d, infeasible %d; want 2, 1, 1",
			m.ServedByHotspot, m.ServedByCDN, m.Infeasible)
	}
	// The bounced request pays the CDN distance.
	if want := 20.0 / 3; !almostEqual(m.AvgAccessDistanceKm, want, 1e-9) {
		t.Errorf("avg distance = %v, want %v", m.AvgAccessDistanceKm, want)
	}
}

func TestRunEnforcesPlacement(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1}, 0, 0)}
	policy := stubPolicy{name: "no-placement", schedule: func(ctx *SlotContext) (*Assignment, error) {
		placement := []similarity.Set{similarity.NewSet(), similarity.NewSet()}
		return &Assignment{Placement: placementOf(placement), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	m, err := Run(world, tr, policy, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ServedByCDN != 1 || m.Infeasible != 1 {
		t.Errorf("request served without placement: %+v", m)
	}
}

func TestRunRejectsOversizedPlacement(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1}, 0, 0)}
	policy := stubPolicy{name: "cache-buster", schedule: func(ctx *SlotContext) (*Assignment, error) {
		placement := []similarity.Set{similarity.NewSet(1, 2, 3), similarity.NewSet()}
		return &Assignment{Placement: placementOf(placement), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	if _, err := Run(world, tr, policy, Options{}); err == nil {
		t.Error("Run accepted placement exceeding cache capacity")
	}
}

func TestRunRejectsBadAssignment(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1}, 0, 0)}
	cases := map[string]func(ctx *SlotContext) (*Assignment, error){
		"nil assignment": func(ctx *SlotContext) (*Assignment, error) { return nil, nil },
		"short placement": func(ctx *SlotContext) (*Assignment, error) {
			return &Assignment{Placement: placementOf([]similarity.Set{similarity.NewSet()}), Target: []int{0}}, nil
		},
		"short targets": func(ctx *SlotContext) (*Assignment, error) {
			return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: nil}, nil
		},
		"target out of range": func(ctx *SlotContext) (*Assignment, error) {
			return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: []int{7}}, nil
		},
		"policy error": func(ctx *SlotContext) (*Assignment, error) {
			return nil, fmt.Errorf("boom")
		},
	}
	for name, schedule := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Run(world, tr, stubPolicy{name: name, schedule: schedule}, Options{}); err == nil {
				t.Error("Run accepted a bad assignment")
			}
		})
	}
}

func TestRunReplicaAccountingAcrossSlots(t *testing.T) {
	world := twoHotspotWorld()
	reqs := append(requestsAt([]trace.VideoID{1}, 0, 0), requestsAt([]trace.VideoID{1}, 0, 1)...)
	reqs[1].ID = 1
	tr := &trace.Trace{Slots: 2, Requests: reqs}

	// The same placement both slots: the replica is pushed once.
	stable := stubPolicy{name: "stable", schedule: func(ctx *SlotContext) (*Assignment, error) {
		placement := []similarity.Set{similarity.NewSet(1), similarity.NewSet()}
		return &Assignment{Placement: placementOf(placement), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	m, err := Run(world, tr, stable, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas != 1 {
		t.Errorf("stable placement replicas = %d, want 1 (carried across slots)", m.Replicas)
	}

	// Churning placement pays for each re-fetch.
	churn := stubPolicy{name: "churn", schedule: func(ctx *SlotContext) (*Assignment, error) {
		video := 1
		if ctx.Slot == 1 {
			video = 2
		}
		placement := []similarity.Set{similarity.NewSet(video), similarity.NewSet()}
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		return &Assignment{Placement: placementOf(placement), Target: targets}, nil
	}}
	m2, err := Run(world, tr, churn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Replicas != 2 {
		t.Errorf("churning placement replicas = %d, want 2", m2.Replicas)
	}
}

func TestRunSlotLoads(t *testing.T) {
	world := twoHotspotWorld()
	reqs := append(requestsAt([]trace.VideoID{1, 2}, 0, 0), requestsAt([]trace.VideoID{3}, 2, 1)...)
	for i := range reqs {
		reqs[i].ID = i
	}
	tr := &trace.Trace{Slots: 2, Requests: reqs}
	policy := stubPolicy{name: "cdn-only", schedule: func(ctx *SlotContext) (*Assignment, error) {
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		placement := []similarity.Set{similarity.NewSet(), similarity.NewSet()}
		return &Assignment{Placement: placementOf(placement), Target: targets}, nil
	}}
	m, err := Run(world, tr, policy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.PerHotspotLoad[0] != 2 || m.PerHotspotLoad[1] != 1 {
		t.Errorf("aggregate loads = %v", m.PerHotspotLoad)
	}
	if m.HotspotServingRatio != 0 {
		t.Errorf("serving ratio = %v, want 0 (CDN-only policy)", m.HotspotServingRatio)
	}
}

func TestBuildSlotContextAggregation(t *testing.T) {
	world := twoHotspotWorld()
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{
		{ID: 0, Video: 1, Location: geo.Point{X: 0.2, Y: 0}},
		{ID: 1, Video: 1, Location: geo.Point{X: 0.3, Y: 0}},
		{ID: 2, Video: 4, Location: geo.Point{X: 1.9, Y: 0}},
	}
	ctx, err := BuildSlotContext(world, index, 0, reqs, stats.SplitRand(1, "test"))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Nearest[0] != 0 || ctx.Nearest[1] != 0 || ctx.Nearest[2] != 1 {
		t.Errorf("Nearest = %v", ctx.Nearest)
	}
	if ctx.Demand.Totals[0] != 2 || ctx.Demand.Totals[1] != 1 {
		t.Errorf("Totals = %v", ctx.Demand.Totals)
	}
	if ctx.Demand.Count(0, 1) != 2 || ctx.Demand.Count(1, 4) != 1 {
		t.Errorf("per-video counts = %v, %v", ctx.Demand.VideoCounts(0), ctx.Demand.VideoCounts(1))
	}
}

func almostEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestRunWithChurn(t *testing.T) {
	world := twoHotspotWorld()
	reqs := make([]trace.Request, 0, 40)
	for slot := 0; slot < 20; slot++ {
		for i := 0; i < 2; i++ {
			reqs = append(reqs, trace.Request{
				ID: slot*2 + i, Video: 1,
				Location: geo.Point{X: float64(i) * 2, Y: 0}, Slot: slot,
			})
		}
	}
	tr := &trace.Trace{Slots: 20, Requests: reqs}
	policy := stubPolicy{name: "local", schedule: func(ctx *SlotContext) (*Assignment, error) {
		// Respect per-slot effective capacities like a correct policy.
		capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
		targets := make([]int, len(ctx.Requests))
		placement := placeEverything(ctx)
		for r := range ctx.Requests {
			h := ctx.Nearest[r]
			if capLeft[h] > 0 && placement[h].Contains(int(ctx.Requests[r].Video)) {
				targets[r] = h
				capLeft[h]--
			} else {
				targets[r] = CDN
			}
		}
		return &Assignment{Placement: placementOf(placement), Target: targets}, nil
	}}
	m, err := Run(world, tr, policy, Options{Seed: 3, Faults: &fault.Scenario{Churn: &fault.MarkovChurn{FailPerSlot: 0.5, RecoverPerSlot: 0.5}}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.OfflineHotspotSlots == 0 {
		t.Error("no hotspot ever went offline at 50% churn")
	}
	if m.Infeasible != 0 {
		t.Errorf("capacity-respecting policy produced %d infeasible targets", m.Infeasible)
	}
	if m.ServedByHotspot+m.ServedByCDN != m.TotalRequests {
		t.Errorf("serving counts inconsistent: %+v", m)
	}
}

func TestRunWholeFleetOffline(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 2}, 0, 0)}
	policy := stubPolicy{name: "never-called", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return nil, fmt.Errorf("policy must not run with the whole fleet offline")
	}}
	// Churn just below 1 with a seed that takes both hotspots down: try
	// seeds until the all-offline branch triggers.
	for seed := int64(0); seed < 200; seed++ {
		m, err := Run(world, tr, policy, Options{Seed: seed, Faults: &fault.Scenario{Churn: &fault.MarkovChurn{FailPerSlot: 0.99, RecoverPerSlot: 0.01}}})
		if err != nil {
			continue // policy ran: fleet was partly online for this seed
		}
		if m.ServedByCDN != 2 || m.ServedByHotspot != 0 {
			t.Fatalf("all-offline slot served wrongly: %+v", m)
		}
		if m.AvgAccessDistanceKm != world.CDNDistanceKm {
			t.Fatalf("all-offline distance %v, want CDN %v", m.AvgAccessDistanceKm, world.CDNDistanceKm)
		}
		return
	}
	t.Fatal("no seed produced an all-offline slot at 99% churn")
}

func TestEffectiveCapacityFallback(t *testing.T) {
	world := twoHotspotWorld()
	ctx := &SlotContext{World: world}
	got := ctx.EffectiveCapacity()
	if len(got) != 2 || got[0] != world.Hotspots[0].ServiceCapacity {
		t.Errorf("fallback capacities = %v", got)
	}
	ctx.Capacity = []int64{0, 1}
	if got := ctx.EffectiveCapacity(); got[0] != 0 || got[1] != 1 {
		t.Errorf("explicit capacities ignored: %v", got)
	}
}

func TestOnlineIndexExcludesOffline(t *testing.T) {
	world := twoHotspotWorld()
	full, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	offline := []bool{true, false}
	idx := full.Subset(func(h int) bool { return !offline[h] })
	if idx.Len() != 1 {
		t.Fatalf("online index has %d points, want 1", idx.Len())
	}
	id, _, ok := idx.Nearest(geo.Point{X: 0, Y: 0})
	if !ok || id != 1 {
		t.Errorf("nearest online = %d (%v), want hotspot 1", id, ok)
	}
}

// TestRunKeepsSlotMetrics: the per-slot timeline a SlotSink collects
// partitions the run's aggregate metrics exactly.
func TestRunKeepsSlotMetrics(t *testing.T) {
	world := twoHotspotWorld()
	reqs := append(requestsAt([]trace.VideoID{1, 2}, 0, 0), requestsAt([]trace.VideoID{3}, 2, 1)...)
	for i := range reqs {
		reqs[i].ID = i
	}
	tr := &trace.Trace{Slots: 2, Requests: reqs}
	policy := stubPolicy{name: "local", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	var timeline []SlotMetrics
	m, err := Run(world, tr, policy, withTimeline(Options{}, &timeline))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(timeline) != 2 {
		t.Fatalf("timeline has %d entries, want 2", len(timeline))
	}
	var served, cdn, reqTotal, replicas int64
	for i, sm := range timeline {
		if sm.Slot != i {
			t.Errorf("timeline[%d].Slot = %d", i, sm.Slot)
		}
		served += sm.ServedByHotspot
		cdn += sm.ServedByCDN
		reqTotal += sm.Requests
		replicas += sm.Replicas
	}
	// The timeline must partition the aggregate metrics exactly.
	if served != m.ServedByHotspot || cdn != m.ServedByCDN ||
		reqTotal != m.TotalRequests || replicas != m.Replicas {
		t.Errorf("timeline does not sum to aggregates: %+v vs totals %+v", timeline, m)
	}
}

// saltedPolicy is a deterministic, per-slot-independent policy that
// consumes the slot's randomness stream: it caches each hotspot's
// demanded videos minus a random per-slot exclusion and targets the
// nearest hotspot when the video survived. Equal slot inputs (context
// plus rand stream) always yield equal assignments, so Run and
// RunParallel must agree exactly.
type saltedPolicy struct{}

func (saltedPolicy) Name() string { return "salted" }

func (saltedPolicy) Schedule(ctx *SlotContext) (*Assignment, error) {
	m := len(ctx.World.Hotspots)
	salt := ctx.Rand.Intn(7)
	placement := make([]similarity.Set, m)
	for h := 0; h < m; h++ {
		placement[h] = similarity.NewSet()
		var videos []int
		for v := range ctx.Demand.VideoCounts(h) {
			videos = append(videos, v)
		}
		sort.Ints(videos)
		for _, v := range videos {
			if (v+salt)%7 == 0 {
				continue
			}
			if placement[h].Len() < ctx.World.Hotspots[h].CacheCapacity {
				placement[h].Add(v)
			}
		}
	}
	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		if placement[h].Contains(int(req.Video)) {
			targets[r] = h
		} else {
			targets[r] = CDN
		}
	}
	return &Assignment{Placement: placementOf(placement), Target: targets}, nil
}

// TestRunParallelMatchesRun locks in RunParallel's contract: for a
// per-slot-independent policy, scheduling slots concurrently must
// reproduce Run's metrics bit for bit — churn draws, per-slot policy
// randomness, replica accounting against the previous slot, and float
// accumulation order included. Run with -race this also exercises the
// worker fan-out for data races.
func TestRunParallelMatchesRun(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = 30
	cfg.NumVideos = 600
	cfg.NumUsers = 900
	cfg.NumRequests = 5000
	cfg.NumRegions = 5
	cfg.Slots = 8
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := Options{Seed: 7, Faults: &fault.Scenario{Churn: &fault.MarkovChurn{FailPerSlot: 0.15, RecoverPerSlot: 0.85}}}

	var wantTL []SlotMetrics
	want, err := Run(world, tr, saltedPolicy{}, withTimeline(opts, &wantTL))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want.OfflineHotspotSlots == 0 {
		t.Fatal("churn drew no offline slots; test world too small to exercise the churn stream")
	}
	norm := func(m *Metrics) Metrics {
		cp := *m
		cp.SchedulingTime = 0 // wall-clock: the only fields allowed to differ
		cp.WallTime = 0
		cp.Phases = obs.PhaseTimings{}
		return cp
	}
	for _, workers := range []int{0, 1, 2, 3, 8} {
		var gotTL []SlotMetrics
		got, err := RunParallel(world, tr, func() Scheduler { return saltedPolicy{} }, workers, withTimeline(opts, &gotTL))
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(norm(want), norm(got)) || !reflect.DeepEqual(wantTL, gotTL) {
			t.Errorf("RunParallel(workers=%d) metrics diverge from Run:\n got %+v\nwant %+v",
				workers, norm(got), norm(want))
		}
	}
}

func TestRunParallelValidation(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1}, 0, 0)}
	if _, err := RunParallel(world, tr, nil, 2, Options{}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := RunParallel(world, tr, func() Scheduler { return nil }, 2, Options{}); err == nil {
		t.Error("nil-returning factory accepted")
	}
}
