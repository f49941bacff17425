package loadgen

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/trace"
)

const sampleSpec = `
# ServeGen-style mixed workload.
class steady  clients=20 arrival=poisson rate=5
class bursty  clients=8  arrival=gamma   rate=10 shape=0.5 videos=zipf:1.1
class smooth  clients=4  arrival=weibull rate=2  shape=2   videos=uniform
`

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := []ClassSpec{
		{Name: "steady", Clients: 20, Arrival: ArrivalPoisson, Rate: 5, ZipfAlpha: 0.8},
		{Name: "bursty", Clients: 8, Arrival: ArrivalGamma, Rate: 10, Shape: 0.5, ZipfAlpha: 1.1},
		{Name: "smooth", Clients: 4, Arrival: ArrivalWeibull, Rate: 2, Shape: 2, Uniform: true},
	}
	if !reflect.DeepEqual(spec.Classes, want) {
		t.Fatalf("parsed %+v\nwant %+v", spec.Classes, want)
	}
	if got := spec.Clients(); got != 32 {
		t.Errorf("Clients() = %d, want 32", got)
	}
	if got := spec.OfferedLoad(); math.Abs(got-188) > 1e-9 {
		t.Errorf("OfferedLoad() = %v, want 188", got)
	}
}

// TestSpecStringRoundTrip: the rendered grammar re-parses to the same
// spec (the fuzz target extends this to arbitrary parsed inputs).
func TestSpecStringRoundTrip(t *testing.T) {
	spec, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"comments only", "# nothing\n\n"},
		{"not a class", "server x=1"},
		{"missing name", "class"},
		{"name with equals", "class a=b clients=1 arrival=poisson rate=1"},
		{"duplicate class", "class a clients=1 arrival=poisson rate=1\nclass a clients=1 arrival=poisson rate=1"},
		{"no clients", "class a arrival=poisson rate=1"},
		{"zero clients", "class a clients=0 arrival=poisson rate=1"},
		{"clients above cap", "class a clients=99999999 arrival=poisson rate=1"},
		{"no arrival", "class a clients=1 rate=1"},
		{"bad arrival", "class a clients=1 arrival=pareto rate=1"},
		{"no rate", "class a clients=1 arrival=poisson"},
		{"zero rate", "class a clients=1 arrival=poisson rate=0"},
		{"nan rate", "class a clients=1 arrival=poisson rate=NaN"},
		{"poisson with shape", "class a clients=1 arrival=poisson rate=1 shape=2"},
		{"gamma without shape", "class a clients=1 arrival=gamma rate=1"},
		{"weibull zero shape", "class a clients=1 arrival=weibull rate=1 shape=0"},
		{"bad videos", "class a clients=1 arrival=poisson rate=1 videos=pareto"},
		{"negative zipf", "class a clients=1 arrival=poisson rate=1 videos=zipf:-1"},
		{"duplicate key", "class a clients=1 clients=2 arrival=poisson rate=1"},
		{"unknown key", "class a clients=1 arrival=poisson rate=1 color=red"},
		{"bare key", "class a clients=1 arrival=poisson rate=1 shape"},
	}
	for _, tc := range cases {
		if _, err := ParseSpec(tc.text); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.text)
		}
	}
}

// specWorld is an m-hotspot line world with a v-video catalogue.
func specWorld(m, v int) *trace.World {
	w := &trace.World{
		Bounds:        geo.Rect{MinX: -1, MinY: -1, MaxX: float64(m), MaxY: 1},
		NumVideos:     v,
		CDNDistanceKm: 20,
	}
	for h := 0; h < m; h++ {
		w.Hotspots = append(w.Hotspots, trace.Hotspot{
			ID:              trace.HotspotID(h),
			Location:        geo.Point{X: float64(h), Y: 0},
			ServiceCapacity: 50,
			CacheCapacity:   20,
		})
	}
	return w
}

// TestGenerateReproducible: same spec, seed, and horizon → the
// identical trace; a different seed → a different trace. The trace is
// valid for its world, and every request stands on a hotspot.
func TestGenerateReproducible(t *testing.T) {
	spec, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	world := specWorld(12, 200)
	a, err := spec.Generate(11, 4, 1.0, world)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := spec.Generate(11, 4, 1.0, world)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := spec.Generate(12, 4, 1.0, world)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	if a.Slots != 4 {
		t.Fatalf("got %d slots, want 4", a.Slots)
	}
	if err := a.Validate(world); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	// Offered load 188 req/s over 4 s: the total should land near 752
	// (loose 3-sigma-ish band; the draw is seeded, so this cannot
	// flake).
	if n := len(a.Requests); n < 500 || n > 1000 {
		t.Errorf("generated %d requests, expected ≈752", n)
	}
	at := make(map[geo.Point]bool)
	for _, h := range world.Hotspots {
		at[h.Location] = true
	}
	for i, r := range a.Requests {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if !at[r.Location] {
			t.Fatalf("request %d at %v, not on a hotspot", i, r.Location)
		}
		if r.User < 0 || r.User >= 32 {
			t.Fatalf("request %d: user %d outside the 32-client population", i, r.User)
		}
	}
}

// TestGenerateClassIndependence: editing one class leaves every other
// class's requests byte-identical (the split-stream contract).
func TestGenerateClassIndependence(t *testing.T) {
	one, err := ParseSpec("class a clients=6 arrival=poisson rate=20\nclass b clients=3 arrival=gamma rate=10 shape=0.7")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	two, err := ParseSpec("class a clients=6 arrival=poisson rate=20\nclass b clients=3 arrival=weibull rate=30 shape=2")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	world := specWorld(8, 50)
	ta, err := one.Generate(5, 3, 1.0, world)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	tb, err := two.Generate(5, 3, 1.0, world)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Class a is users [0, 6); its requests must be identical in both.
	classA := func(tr *trace.Trace) []trace.Request {
		var out []trace.Request
		for _, r := range tr.Requests {
			if r.User < 6 {
				out = append(out, r)
			}
		}
		return out
	}
	if !reflect.DeepEqual(classA(ta), classA(tb)) {
		t.Fatal("editing class b perturbed class a's requests")
	}
}

func TestGenerateValidation(t *testing.T) {
	spec, err := ParseSpec("class a clients=1 arrival=poisson rate=1")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if _, err := spec.Generate(1, 0, 1, specWorld(4, 10)); err == nil {
		t.Error("accepted zero slots")
	}
	if _, err := spec.Generate(1, 2, 0, specWorld(4, 10)); err == nil {
		t.Error("accepted zero slot duration")
	}
	if _, err := spec.Generate(1, 2, 1, specWorld(0, 10)); err == nil {
		t.Error("accepted zero hotspots")
	}
	if _, err := spec.Generate(1, 2, 1, specWorld(4, 0)); err == nil {
		t.Error("accepted zero videos")
	}
	huge, err := ParseSpec("class a clients=1000000 arrival=poisson rate=1000")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if _, err := huge.Generate(1, 1000, 1, specWorld(4, 10)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized horizon not rejected: %v", err)
	}
}
