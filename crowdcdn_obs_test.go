package crowdcdn

// Facade-level test of the observability surface: registry, tracer,
// debug server, and phase timings, driven through the public API only.

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestFacadeObservability(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.NumHotspots = 20
	cfg.NumVideos = 300
	cfg.NumUsers = 400
	cfg.NumRequests = 2000
	cfg.NumRegions = 4
	cfg.Slots = 4
	world, tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	tracer := NewRoundTracer(4096, true)
	params := DefaultParams()
	params.Obs = reg
	params.RecordEvents = true
	opts := SimOptions{Seed: 1, Registry: reg, Tracer: tracer}
	policy, err := LookupScheme("rbcaer", 1.5, params, ShardParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := policy.Run(world, tr, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRequests == 0 {
		t.Fatal("no requests simulated")
	}
	if m.Phases.Total() == 0 {
		t.Error("phase timings not populated with observability enabled")
	}
	if m.WallTime == 0 {
		t.Error("wall time not measured")
	}

	var snap bytes.Buffer
	if err := reg.Snapshot(false).WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"core.rounds", "sim.requests_total"} {
		if !strings.Contains(snap.String(), want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
	if tracer.Len() == 0 {
		t.Error("tracer recorded no events")
	}

	srv, addr, err := ServeDebug("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("sim.requests_total")) {
		t.Errorf("debug metrics endpoint: status %d, body %.120s", resp.StatusCode, body)
	}
}

func TestFacadeFactoredPredicted(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.NumHotspots = 16
	cfg.NumVideos = 200
	cfg.NumUsers = 300
	cfg.NumRequests = 1200
	cfg.NumRegions = 4
	cfg.Slots = 3
	world, tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(world, tr, NewFactoredPredicted(NewNearest()), SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRequests == 0 {
		t.Error("no requests simulated")
	}
}
