package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// resilientPolicy is a deterministic, slot-independent policy that
// honours every fault channel the context exposes: it budgets against
// the effective (degraded) service and cache capacities, consumes the
// slot's randomness stream, and reports degraded rounds. Equal slot
// inputs always yield equal assignments, so Run and RunParallel must
// agree bit for bit under any fault scenario.
type resilientPolicy struct{}

func (resilientPolicy) Name() string { return "resilient" }

func (resilientPolicy) Schedule(ctx *SlotContext) (*Assignment, error) {
	m := len(ctx.World.Hotspots)
	salt := ctx.Rand.Intn(7)
	cache := ctx.EffectiveCacheCapacity()
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
			if placement[h].Len() < cache[h] {
				placement[h].Add(v)
			}
		}
	}
	capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
	targets := make([]int, len(ctx.Requests))
	var stranded int64
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		if capLeft[h] > 0 && placement[h].Contains(int(req.Video)) {
			targets[r] = h
			capLeft[h]--
		} else {
			targets[r] = CDN
			stranded++
		}
	}
	return &Assignment{
		Placement:      placementOf(placement),
		Target:         targets,
		Degraded:       salt == 3,
		StrandedDemand: stranded,
	}, nil
}

// stressScenario composes every failure mode against the given world.
func stressScenario(world *trace.World) *fault.Scenario {
	return &fault.Scenario{
		Name:  "stress",
		Churn: &fault.MarkovChurn{FailPerSlot: 0.1, RecoverPerSlot: 0.3},
		Outages: []fault.RegionalOutage{
			{Center: world.Hotspots[0].Location, RadiusKm: 2, StartSlot: 2, EndSlot: 4},
		},
		Degradations: []fault.CapacityDegradation{
			{StartSlot: 1, EndSlot: 6, Fraction: 0.6, ServiceFactor: 0.5, CacheFactor: 0.5},
		},
		FlashCrowds: []fault.FlashCrowd{
			{StartSlot: 1, EndSlot: 4, TopVideos: 3, Multiplier: 2},
		},
		Staleness: &fault.StaleReports{LagSlots: 1, DropFraction: 0.2},
	}
}

// TestRunParallelMatchesRunWithFaults is the resilience determinism
// contract: with every fault channel active — Markov churn, a regional
// outage, capacity degradation, a flash crowd, stale and dropped load
// reports — RunParallel must reproduce Run's metrics byte for byte at
// every worker count. Run with -race this also exercises concurrent
// reads of the shared fault timeline.
func TestRunParallelMatchesRunWithFaults(t *testing.T) {
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
	opts := Options{
		Seed:   11,
		Faults: stressScenario(world),
	}

	var wantTL []SlotMetrics
	want, err := Run(world, tr, resilientPolicy{}, withTimeline(opts, &wantTL))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The scenario must actually bite, or the test proves nothing.
	if want.OfflineHotspotSlots == 0 {
		t.Fatal("fault scenario injected no outages")
	}
	if want.FlashInjectedRequests == 0 {
		t.Fatal("flash crowd injected no requests")
	}
	if want.DegradedRounds == 0 {
		t.Fatal("no degraded rounds recorded")
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
		got, err := RunParallel(world, tr, func() Scheduler { return resilientPolicy{} }, workers, withTimeline(opts, &gotTL))
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(norm(want), norm(got)) || !reflect.DeepEqual(wantTL, gotTL) {
			t.Errorf("RunParallel(workers=%d) metrics diverge from Run under faults:\n got %+v\nwant %+v",
				workers, norm(got), norm(want))
		}
	}
}

// TestOptionsValidate is the table-driven validation contract for every
// Options field.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"seed only", Options{Seed: -42}, true},
		{"nil faults", Options{Faults: nil}, true},
		{"empty faults", Options{Faults: &fault.Scenario{}}, true},
		{"valid faults", Options{Faults: &fault.Scenario{
			Churn: &fault.MarkovChurn{FailPerSlot: 0.2, RecoverPerSlot: 0.4},
		}}, true},
		{"invalid faults", Options{Faults: &fault.Scenario{
			Churn: &fault.MarkovChurn{FailPerSlot: 2},
		}}, false},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid options accepted", tc.name)
		}
	}
}

// TestAllOfflineRegression locks in the w.allOffline path for both Run
// and RunParallel: with churn {1, 0} the policy must never run, every
// request is CDN-served at CDN distance, and the two entry points
// produce identical metrics at every worker count.
func TestAllOfflineRegression(t *testing.T) {
	world := twoHotspotWorld()
	reqs := append(requestsAt([]trace.VideoID{1, 2}, 0, 0), requestsAt([]trace.VideoID{3}, 2, 1)...)
	for i := range reqs {
		reqs[i].ID = i
	}
	tr := &trace.Trace{Slots: 2, Requests: reqs}
	policy := stubPolicy{name: "never-called", schedule: func(ctx *SlotContext) (*Assignment, error) {
		return nil, fmt.Errorf("policy must not run with the whole fleet offline")
	}}
	opts := Options{Seed: 5, Faults: &fault.Scenario{Churn: &fault.MarkovChurn{FailPerSlot: 1}}}

	var wantTL []SlotMetrics
	want, err := Run(world, tr, policy, withTimeline(opts, &wantTL))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want.ServedByCDN != 3 || want.ServedByHotspot != 0 || want.TotalRequests != 3 {
		t.Fatalf("all-offline run served wrongly: %+v", want)
	}
	if want.AvgAccessDistanceKm != world.CDNDistanceKm {
		t.Fatalf("all-offline distance %v, want CDN %v", want.AvgAccessDistanceKm, world.CDNDistanceKm)
	}
	if want.OfflineHotspotSlots != 4 { // 2 hotspots × 2 non-empty slots
		t.Errorf("OfflineHotspotSlots = %d, want 4", want.OfflineHotspotSlots)
	}
	norm := func(m *Metrics) Metrics {
		cp := *m
		cp.SchedulingTime = 0
		cp.WallTime = 0
		cp.Phases = obs.PhaseTimings{}
		return cp
	}
	for _, workers := range []int{2, 8} {
		var gotTL []SlotMetrics
		got, err := RunParallel(world, tr, func() Scheduler { return policy }, workers, withTimeline(opts, &gotTL))
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(norm(want), norm(got)) || !reflect.DeepEqual(wantTL, gotTL) {
			t.Errorf("RunParallel(workers=%d) all-offline metrics diverge:\n got %+v\nwant %+v",
				workers, norm(got), norm(want))
		}
	}
}

// TestRegionalOutageServesByCDN pins the outage plumbing: a radius
// covering only hotspot 0 takes it offline for the window, requests
// re-aggregate to hotspot 1 or fall back to the CDN, and the outage is
// counted in OfflineHotspotSlots.
func TestRegionalOutageServesByCDN(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 2}, 0, 0)}
	opts := Options{Faults: &fault.Scenario{
		Outages: []fault.RegionalOutage{
			{Center: world.Hotspots[0].Location, RadiusKm: 0.5, StartSlot: 0, EndSlot: 1},
		},
	}}
	m, err := Run(world, tr, resilientPolicy{}, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.OfflineHotspotSlots != 1 {
		t.Errorf("OfflineHotspotSlots = %d, want 1", m.OfflineHotspotSlots)
	}
	if m.PerHotspotServed[0] != 0 {
		t.Errorf("offline hotspot 0 served %d requests", m.PerHotspotServed[0])
	}
}

// TestCapacityDegradationBoundsServing pins the degraded-capacity
// plumbing: with service halved, a nominal-capacity worth of nearest
// targets overflows and the excess bounces to the CDN.
func TestCapacityDegradationBoundsServing(t *testing.T) {
	world := twoHotspotWorld() // service capacity 2 per hotspot
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 1}, 0, 0)}
	naive := stubPolicy{name: "nominal-budget", schedule: func(ctx *SlotContext) (*Assignment, error) {
		// Deliberately budget against nominal capacity to prove the
		// simulator enforces the degraded one.
		return &Assignment{Placement: placementOf(placeEverything(ctx)), Target: append([]int(nil), ctx.Nearest...)}, nil
	}}
	opts := Options{Faults: &fault.Scenario{
		Degradations: []fault.CapacityDegradation{
			{StartSlot: 0, EndSlot: 1, Fraction: 1, ServiceFactor: 0.5, CacheFactor: 1},
		},
	}}
	m, err := Run(world, tr, naive, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ServedByHotspot != 1 || m.Infeasible != 1 {
		t.Errorf("served %d infeasible %d, want 1 and 1 (capacity floor(2*0.5)=1)",
			m.ServedByHotspot, m.Infeasible)
	}
}

// TestStaleReportsLagDemandView pins the stale-report plumbing: with a
// one-slot lag the policy's demand view at slot t aggregates slot
// t-1's requests, while serving and load metrics stay true.
func TestStaleReportsLagDemandView(t *testing.T) {
	world := twoHotspotWorld()
	reqs := append(requestsAt([]trace.VideoID{1, 1}, 0, 0), requestsAt([]trace.VideoID{2}, 0, 1)...)
	for i := range reqs {
		reqs[i].ID = i
	}
	tr := &trace.Trace{Slots: 2, Requests: reqs}
	seen := map[int]int64{}
	recorder := stubPolicy{name: "recorder", schedule: func(ctx *SlotContext) (*Assignment, error) {
		seen[ctx.Slot] = ctx.Demand.Totals[0]
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		return &Assignment{Placement: placementOf([]similarity.Set{{}, {}}), Target: targets}, nil
	}}
	opts := Options{Faults: &fault.Scenario{Staleness: &fault.StaleReports{LagSlots: 1}}}
	m, err := Run(world, tr, recorder, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Slot 0 clamps to itself (2 requests); slot 1 sees slot 0's 2
	// requests instead of its own 1.
	if seen[0] != 2 || seen[1] != 2 {
		t.Errorf("reported demand = %v, want slot0: 2, slot1: 2 (lagged)", seen)
	}
	// Load metrics reflect true demand: 2 + 1 requests at hotspot 0.
	if m.PerHotspotLoad[0] != 3 {
		t.Errorf("PerHotspotLoad[0] = %d, want 3 (true demand)", m.PerHotspotLoad[0])
	}
}

// TestDroppedReportsHideDemand pins the partial-report plumbing: with
// every report dropped, policies see zero demand everywhere.
func TestDroppedReportsHideDemand(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 2}, 0, 0)}
	var sawDemand int64
	recorder := stubPolicy{name: "recorder", schedule: func(ctx *SlotContext) (*Assignment, error) {
		for h := range ctx.Demand.Totals {
			sawDemand += ctx.Demand.Totals[h]
		}
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		return &Assignment{Placement: placementOf([]similarity.Set{{}, {}}), Target: targets}, nil
	}}
	opts := Options{Faults: &fault.Scenario{Staleness: &fault.StaleReports{DropFraction: 1}}}
	if _, err := Run(world, tr, recorder, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawDemand != 0 {
		t.Errorf("policy saw %d demand despite every report dropped", sawDemand)
	}
}

// TestFlashCrowdInflatesWorkload pins the flash-crowd plumbing: the
// injected duplicates show up in TotalRequests and are reported in
// FlashInjectedRequests.
func TestFlashCrowdInflatesWorkload(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 1, 2}, 0, 0)}
	opts := Options{Faults: &fault.Scenario{
		FlashCrowds: []fault.FlashCrowd{
			{StartSlot: 0, EndSlot: 1, TopVideos: 1, Multiplier: 3},
		},
	}}
	m, err := Run(world, tr, resilientPolicy{}, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Video 1 (2 requests) gains 2 duplicates each.
	if m.FlashInjectedRequests != 4 {
		t.Errorf("FlashInjectedRequests = %d, want 4", m.FlashInjectedRequests)
	}
	if m.TotalRequests != 7 {
		t.Errorf("TotalRequests = %d, want 3 + 4 injected", m.TotalRequests)
	}
}

// TestDegradedAssignmentMetrics pins the degraded-round accounting:
// Assignment.Degraded and StrandedDemand flow into DegradedRounds,
// StrandedRequests, and FallbackServedByCDN, and a negative
// StrandedDemand is rejected.
func TestDegradedAssignmentMetrics(t *testing.T) {
	world := twoHotspotWorld()
	tr := &trace.Trace{Slots: 1, Requests: requestsAt([]trace.VideoID{1, 2}, 0, 0)}
	degraded := stubPolicy{name: "degraded", schedule: func(ctx *SlotContext) (*Assignment, error) {
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		return &Assignment{
			Placement:      placementOf([]similarity.Set{{}, {}}),
			Target:         targets,
			Degraded:       true,
			StrandedDemand: 2,
		}, nil
	}}
	m, err := Run(world, tr, degraded, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.DegradedRounds != 1 || m.StrandedRequests != 2 || m.FallbackServedByCDN != 2 {
		t.Errorf("degraded accounting = rounds %d stranded %d fallback %d, want 1, 2, 2",
			m.DegradedRounds, m.StrandedRequests, m.FallbackServedByCDN)
	}

	negative := stubPolicy{name: "negative", schedule: func(ctx *SlotContext) (*Assignment, error) {
		targets := make([]int, len(ctx.Requests))
		for i := range targets {
			targets[i] = CDN
		}
		return &Assignment{Placement: placementOf([]similarity.Set{{}, {}}), Target: targets, StrandedDemand: -1}, nil
	}}
	if _, err := Run(world, tr, negative, Options{}); err == nil {
		t.Error("negative StrandedDemand accepted")
	}
}

// TestEffectiveCacheCapacityFallback mirrors the service-capacity
// fallback test for the cache vector.
func TestEffectiveCacheCapacityFallback(t *testing.T) {
	world := twoHotspotWorld()
	ctx := &SlotContext{World: world}
	got := ctx.EffectiveCacheCapacity()
	if len(got) != 2 || got[0] != world.Hotspots[0].CacheCapacity {
		t.Errorf("fallback cache capacities = %v", got)
	}
	ctx.CacheCapacity = []int{0, 1}
	if got := ctx.EffectiveCacheCapacity(); got[0] != 0 || got[1] != 1 {
		t.Errorf("explicit cache capacities ignored: %v", got)
	}
}
