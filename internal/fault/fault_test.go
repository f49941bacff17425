package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/trace"
)

// lineWorld returns m hotspots spaced 1 km apart on the x axis.
func lineWorld(m int) *trace.World {
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: float64(m), MaxY: 1},
		NumVideos:     50,
		CDNDistanceKm: 20,
	}
	for h := 0; h < m; h++ {
		w.Hotspots = append(w.Hotspots, trace.Hotspot{
			ID:              trace.HotspotID(h),
			Location:        geo.Point{X: float64(h), Y: 0},
			ServiceCapacity: 10,
			CacheCapacity:   8,
		})
	}
	return w
}

func fullScenario() *Scenario {
	return &Scenario{
		Name:  "everything",
		Churn: &MarkovChurn{FailPerSlot: 0.2, RecoverPerSlot: 0.4},
		Outages: []RegionalOutage{
			{Center: geo.Point{X: 1, Y: 0}, RadiusKm: 1.5, StartSlot: 2, EndSlot: 4},
		},
		Degradations: []CapacityDegradation{
			{StartSlot: 1, EndSlot: 5, Fraction: 0.5, ServiceFactor: 0.5, CacheFactor: 0.5},
		},
		FlashCrowds: []FlashCrowd{
			{StartSlot: 2, EndSlot: 4, TopVideos: 2, Multiplier: 3},
		},
		Staleness: &StaleReports{LagSlots: 1, DropFraction: 0.25},
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
		ok   bool
	}{
		{"nil scenario", nil, true},
		{"empty scenario", &Scenario{}, true},
		{"full scenario", fullScenario(), true},
		{"bad fail prob", &Scenario{Churn: &MarkovChurn{FailPerSlot: 1.5, RecoverPerSlot: 0.5}}, false},
		{"absorbing churn", &Scenario{Churn: &MarkovChurn{FailPerSlot: 0.5}}, false},
		{"negative radius", &Scenario{Outages: []RegionalOutage{{RadiusKm: -1}}}, false},
		{"inverted outage window", &Scenario{Outages: []RegionalOutage{{RadiusKm: 1, StartSlot: 3, EndSlot: 1}}}, false},
		{"bad degradation fraction", &Scenario{Degradations: []CapacityDegradation{{EndSlot: 1, Fraction: 2, ServiceFactor: 1, CacheFactor: 1}}}, false},
		{"bad service factor", &Scenario{Degradations: []CapacityDegradation{{EndSlot: 1, Fraction: 0.5, ServiceFactor: -0.1, CacheFactor: 1}}}, false},
		{"zero multiplier", &Scenario{FlashCrowds: []FlashCrowd{{EndSlot: 1, TopVideos: 1, Multiplier: 0}}}, false},
		{"negative lag", &Scenario{Staleness: &StaleReports{LagSlots: -1}}, false},
		{"bad drop fraction", &Scenario{Staleness: &StaleReports{DropFraction: 1.5}}, false},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid scenario accepted", tc.name)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	world := lineWorld(12)
	a, err := Compile(world, 10, 7, fullScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	b, err := Compile(world, 10, 7, fullScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same inputs compiled to different timelines")
	}
	c, err := Compile(world, 10, 8, fullScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if reflect.DeepEqual(a.causes, c.causes) && reflect.DeepEqual(a.drops, c.drops) {
		t.Error("different seeds produced identical randomized draws (suspicious)")
	}
}

func TestCompileValidation(t *testing.T) {
	world := lineWorld(3)
	if _, err := Compile(nil, 5, 1, &Scenario{}); err == nil {
		t.Error("nil world accepted")
	}
	if _, err := Compile(world, 0, 1, &Scenario{}); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := Compile(world, 5, 1, &Scenario{Churn: &MarkovChurn{FailPerSlot: -1}}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestCompileEmptyScenario(t *testing.T) {
	tl, err := Compile(lineWorld(3), 5, 1, nil)
	if err != nil {
		t.Fatalf("Compile(nil scenario): %v", err)
	}
	for s := 0; s < 5; s++ {
		if tl.Causes(s) != nil || tl.ServiceCapacities(s) != nil ||
			tl.CacheCapacities(s) != nil || tl.DroppedReports(s) != nil {
			t.Fatalf("empty scenario injected something at slot %d", s)
		}
	}
	if tl.Stale() {
		t.Error("empty scenario reports stale")
	}
	if tl.ReportSlot(3) != 3 {
		t.Errorf("ReportSlot(3) = %d without lag", tl.ReportSlot(3))
	}
}

func TestRegionalOutageGeometry(t *testing.T) {
	world := lineWorld(6) // hotspots at x = 0..5
	sc := &Scenario{Outages: []RegionalOutage{
		{Center: geo.Point{X: 1, Y: 0}, RadiusKm: 1.25, StartSlot: 1, EndSlot: 3},
	}}
	tl, err := Compile(world, 4, 1, sc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, slot := range []int{0, 3} {
		if tl.Causes(slot) != nil {
			t.Errorf("slot %d outside window has causes %v", slot, tl.Causes(slot))
		}
	}
	for _, slot := range []int{1, 2} {
		causes := tl.Causes(slot)
		if causes == nil {
			t.Fatalf("slot %d inside window has no causes", slot)
		}
		for h := 0; h < 6; h++ {
			wantDown := h <= 2 // x=0,1,2 within 1.25 km of x=1
			if gotDown := causes[h] == CauseOutage; gotDown != wantDown {
				t.Errorf("slot %d hotspot %d: cause %v, want down=%v", slot, h, causes[h], wantDown)
			}
		}
	}
}

func TestMarkovChurnIsBursty(t *testing.T) {
	world := lineWorld(20)
	slots := 200
	sc := &Scenario{Churn: &MarkovChurn{FailPerSlot: 0.05, RecoverPerSlot: 0.25}}
	tl, err := Compile(world, slots, 3, sc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Count outage sessions and offline slots; mean session length
	// should approach 1/RecoverPerSlot = 4 slots, far above the 1-ish
	// of i.i.d. churn at the same offline fraction.
	var offlineSlots, sessions int
	for h := 0; h < 20; h++ {
		down := false
		for s := 0; s < slots; s++ {
			causes := tl.Causes(s)
			now := causes != nil && causes[h] == CauseChurn
			if now {
				offlineSlots++
				if !down {
					sessions++
				}
			}
			down = now
		}
	}
	if sessions == 0 {
		t.Fatal("no churn sessions drawn")
	}
	mean := float64(offlineSlots) / float64(sessions)
	if mean < 2 {
		t.Errorf("mean outage session %.2f slots; Markov churn should be bursty (want >= 2)", mean)
	}
}

// TestMarkovChurnIIDFold: with Recover = 1 − Fail the chain is i.i.d.
// churn — every (slot, hotspot) is offline with probability Fail,
// whatever the hotspot was the slot before. Checked on 2,000 hotspots ×
// 50 slots, each estimate within 4σ of 0.2.
func TestMarkovChurnIIDFold(t *testing.T) {
	const m, slots, p = 2000, 50, 0.2
	tl, err := Compile(lineWorld(m), slots, 9, &Scenario{Churn: &MarkovChurn{FailPerSlot: p, RecoverPerSlot: 1 - p}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	offline := func(s, h int) bool {
		causes := tl.Causes(s)
		return causes != nil && causes[h] == CauseChurn
	}
	// [previous state][current state] counts; slot 0 follows an
	// all-online fleet.
	var n [2][2]int
	for h := 0; h < m; h++ {
		prev := false
		for s := 0; s < slots; s++ {
			now := offline(s, h)
			n[b2i(prev)][b2i(now)]++
			prev = now
		}
	}
	check := func(name string, hits, total int) {
		t.Helper()
		if total == 0 {
			t.Fatalf("%s: no samples", name)
		}
		got := float64(hits) / float64(total)
		if sigma := math.Sqrt(p * (1 - p) / float64(total)); math.Abs(got-p) > 4*sigma {
			t.Errorf("%s = %.4f over %d samples, want %.2f ± %.4f", name, got, total, p, 4*sigma)
		}
	}
	check("offline fraction", n[0][1]+n[1][1], m*slots)
	check("P(offline | offline before)", n[1][1], n[1][0]+n[1][1])
	check("P(offline | online before)", n[0][1], n[0][0]+n[0][1])
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMarkovChurnWholeFleet: {1, 0} — fail surely, never recover — is
// the whole fleet offline every slot, and validates; a chain that
// fails only sometimes but never recovers is still refused.
func TestMarkovChurnWholeFleet(t *testing.T) {
	const m, slots = 7, 5
	tl, err := Compile(lineWorld(m), slots, 1, &Scenario{Churn: &MarkovChurn{FailPerSlot: 1, RecoverPerSlot: 0}})
	if err != nil {
		t.Fatalf("Compile {1, 0}: %v", err)
	}
	for s := 0; s < slots; s++ {
		causes := tl.Causes(s)
		for h := 0; h < m; h++ {
			if causes == nil || causes[h] != CauseChurn {
				t.Fatalf("slot %d hotspot %d online under {1, 0}", s, h)
			}
		}
	}
	if err := (&MarkovChurn{FailPerSlot: 0.3, RecoverPerSlot: 0}).Validate(); err == nil {
		t.Error("{0.3, 0} accepted")
	}
}

func TestCapacityDegradationScales(t *testing.T) {
	world := lineWorld(10)
	sc := &Scenario{Degradations: []CapacityDegradation{
		{StartSlot: 0, EndSlot: 2, Fraction: 1, ServiceFactor: 0.5, CacheFactor: 0.25},
	}}
	tl, err := Compile(world, 3, 1, sc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	svc := tl.ServiceCapacities(0)
	cache := tl.CacheCapacities(1)
	if svc == nil || cache == nil {
		t.Fatal("degraded slots report nominal capacities")
	}
	for h := range world.Hotspots {
		if svc[h] != 5 { // floor(10 * 0.5)
			t.Errorf("hotspot %d service %d, want 5", h, svc[h])
		}
		if cache[h] != 2 { // floor(8 * 0.25)
			t.Errorf("hotspot %d cache %d, want 2", h, cache[h])
		}
	}
	if tl.ServiceCapacities(2) != nil || tl.CacheCapacities(2) != nil {
		t.Error("slot outside degradation window degraded")
	}
}

func TestInjectFlashCrowds(t *testing.T) {
	reqs := []trace.Request{
		{ID: 0, Video: 1, Slot: 0},
		{ID: 1, Video: 1, Slot: 1},
		{ID: 2, Video: 1, Slot: 1},
		{ID: 3, Video: 2, Slot: 1},
		{ID: 4, Video: 3, Slot: 2},
	}
	tr := &trace.Trace{Slots: 3, Requests: reqs}
	sc := &Scenario{FlashCrowds: []FlashCrowd{
		{StartSlot: 1, EndSlot: 2, TopVideos: 1, Multiplier: 3},
	}}
	out, injected, err := InjectFlashCrowds(tr, sc)
	if err != nil {
		t.Fatalf("InjectFlashCrowds: %v", err)
	}
	// Video 1 is the window's hottest (2 requests); each request gains
	// 2 duplicates.
	if injected != 4 {
		t.Fatalf("injected %d requests, want 4", injected)
	}
	if len(out.Requests) != len(reqs)+4 {
		t.Fatalf("trace has %d requests, want %d", len(out.Requests), len(reqs)+4)
	}
	// Slot-0 and slot-2 requests are untouched; duplicates sit inside
	// slot 1 adjacent to their originals and carry fresh ids.
	if out.Requests[0] != reqs[0] {
		t.Errorf("slot-0 request perturbed: %+v", out.Requests[0])
	}
	seen := map[int]bool{}
	for _, r := range out.Requests {
		if seen[r.ID] {
			t.Fatalf("duplicate request id %d", r.ID)
		}
		seen[r.ID] = true
	}
	if err := out.Validate(&trace.World{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, NumVideos: 50, CDNDistanceKm: 1, Hotspots: []trace.Hotspot{{}}}); err != nil {
		t.Errorf("injected trace invalid: %v", err)
	}
	// Determinism: same inputs, same output.
	out2, _, err := InjectFlashCrowds(tr, sc)
	if err != nil {
		t.Fatalf("InjectFlashCrowds: %v", err)
	}
	if !reflect.DeepEqual(out, out2) {
		t.Error("flash-crowd injection not deterministic")
	}
	// No flash crowds: the very same trace pointer comes back.
	same, n, err := InjectFlashCrowds(tr, &Scenario{})
	if err != nil || same != tr || n != 0 {
		t.Errorf("no-op injection returned (%p, %d, %v), want (%p, 0, nil)", same, n, err, tr)
	}
}

func TestReportSlotClamps(t *testing.T) {
	tl, err := Compile(lineWorld(2), 5, 1, &Scenario{Staleness: &StaleReports{LagSlots: 2}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !tl.Stale() {
		t.Fatal("lagged timeline not stale")
	}
	for slot, want := range map[int]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 2} {
		if got := tl.ReportSlot(slot); got != want {
			t.Errorf("ReportSlot(%d) = %d, want %d", slot, got, want)
		}
	}
}
