package crowdcdn

import (
	"bytes"
	"testing"
)

// smallEvalConfig shrinks the paper's evaluation setup for fast tests
// while preserving the ~1.1x oversubscription regime.
func smallEvalConfig() TraceConfig {
	cfg := DefaultTraceConfig()
	cfg.NumHotspots = 50
	cfg.NumVideos = 2000
	cfg.NumUsers = 4000
	cfg.NumRequests = 4300
	cfg.NumRegions = 7
	return cfg
}

func TestPublicAPIEndToEnd(t *testing.T) {
	world, tr, err := Generate(smallEvalConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	policies := []Scheduler{
		NewRBCAer(DefaultParams()),
		NewNearest(),
		NewRandom(1.5),
	}
	results := make(map[string]*Metrics, len(policies))
	for _, p := range policies {
		m, err := Simulate(world, tr, p, SimOptions{Seed: 1})
		if err != nil {
			t.Fatalf("Simulate(%s): %v", p.Name(), err)
		}
		if m.TotalRequests != int64(len(tr.Requests)) {
			t.Errorf("%s: simulated %d of %d requests", p.Name(), m.TotalRequests, len(tr.Requests))
		}
		if m.ServedByHotspot+m.ServedByCDN != m.TotalRequests {
			t.Errorf("%s: serving counts do not add up: %+v", p.Name(), m)
		}
		if m.HotspotServingRatio < 0 || m.HotspotServingRatio > 1 {
			t.Errorf("%s: serving ratio %v outside [0, 1]", p.Name(), m.HotspotServingRatio)
		}
		results[m.Scheme] = m
	}

	// The paper's headline ordering must hold even at test scale:
	// RBCAer dominates Nearest on every metric.
	rb, near := results["RBCAer"], results["Nearest"]
	if rb.HotspotServingRatio < near.HotspotServingRatio {
		t.Errorf("RBCAer serving ratio %.3f < Nearest %.3f",
			rb.HotspotServingRatio, near.HotspotServingRatio)
	}
	if rb.AvgAccessDistanceKm > near.AvgAccessDistanceKm {
		t.Errorf("RBCAer distance %.3f > Nearest %.3f",
			rb.AvgAccessDistanceKm, near.AvgAccessDistanceKm)
	}
	if rb.CDNServerLoad > near.CDNServerLoad {
		t.Errorf("RBCAer CDN load %.3f > Nearest %.3f", rb.CDNServerLoad, near.CDNServerLoad)
	}
}

func TestPublicAPILowLevelScheduler(t *testing.T) {
	world, tr, err := Generate(smallEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewRBCAScheduler(world, DefaultParams())
	if err != nil {
		t.Fatalf("NewRBCAScheduler: %v", err)
	}
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	demand := NewDemand(len(world.Hotspots))
	for _, req := range tr.Requests {
		h, _, ok := index.Nearest(req.Location)
		if !ok {
			t.Fatal("empty index")
		}
		demand.Add(HotspotID(h), req.Video, 1)
	}
	plan, err := sched.ScheduleRound(demand, Constraints{})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	if plan.Stats.MaxFlow > 0 && plan.Stats.MovedFlow == 0 {
		t.Error("balancing moved nothing despite movable workload")
	}
	if len(plan.Placement) != len(world.Hotspots) {
		t.Errorf("placement covers %d hotspots, want %d", len(plan.Placement), len(world.Hotspots))
	}
}

func TestPublicAPIFileRoundTrip(t *testing.T) {
	world, tr, err := Generate(smallEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wbuf, rbuf bytes.Buffer
	if err := WriteWorld(&wbuf, world); err != nil {
		t.Fatal(err)
	}
	if err := WriteRequests(&rbuf, tr); err != nil {
		t.Fatal(err)
	}
	world2, err := ReadWorld(&wbuf)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadRequests(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Simulate(world, tr, NewNearest(), SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Simulate(world2, tr2, NewNearest(), SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m1.ServedByHotspot != m2.ServedByHotspot || m1.Replicas != m2.Replicas {
		t.Errorf("round-tripped world simulates differently: %+v vs %+v", m1, m2)
	}
}

func TestPublicAPIExperimentRunner(t *testing.T) {
	runner := NewExperimentRunner(1, 0.05)
	ids := ExperimentIDs()
	if len(ids) != 8 {
		t.Fatalf("ExperimentIDs() = %v, want 8 experiments", ids)
	}
	figs, err := runner.Run("fig9")
	if err != nil {
		t.Fatalf("Run(fig9): %v", err)
	}
	var buf bytes.Buffer
	for _, f := range figs {
		if err := f.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Error("Render produced no output")
	}
}

func TestPublicAPIMeasurementAnalyses(t *testing.T) {
	cfg := smallEvalConfig()
	cfg.Slots = 8
	cfg.NumRequests = 9000
	world, tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, analyze := range map[string]func(*World, *Trace, int64) (*Figure, error){
		"workload":    AnalyzeWorkloadDistribution,
		"correlation": AnalyzeWorkloadCorrelation,
		"similarity":  AnalyzeContentSimilarity,
	} {
		fig, err := analyze(world, tr, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(fig.Series) == 0 {
			t.Errorf("%s produced no series", name)
		}
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	cfg := smallEvalConfig()
	world, tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policies := []Scheduler{
		NewHierarchical(3.0),
		NewSharded(ShardParams{CellKm: 4}),
		NewPowerOfTwo(1.5),
		NewReactiveLRU(),
		NewReactiveLFU(),
		NewLPBased(),
	}
	for _, p := range policies {
		m, err := Simulate(world, tr, p, SimOptions{Seed: 1})
		if err != nil {
			t.Fatalf("Simulate(%s): %v", p.Name(), err)
		}
		if m.TotalRequests == 0 {
			t.Errorf("%s simulated nothing", p.Name())
		}
	}

	// Churn through the facade.
	m, err := Simulate(world, tr, NewRBCAer(DefaultParams()), SimOptions{Seed: 1, Faults: &FaultScenario{
		Churn: &MarkovChurn{FailPerSlot: 0.2, RecoverPerSlot: 0.8},
	}})
	if err != nil {
		t.Fatalf("Simulate with churn: %v", err)
	}
	if m.OfflineHotspotSlots == 0 {
		t.Error("churn had no effect")
	}

	if len(ExtensionExperimentIDs()) == 0 {
		t.Error("no extension experiments listed")
	}
	if MeasurementTraceConfig().NumHotspots <= DefaultTraceConfig().NumHotspots {
		t.Error("measurement config not city-scale")
	}
}

func TestPublicAPISummarize(t *testing.T) {
	world, tr, err := Generate(smallEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(world, tr)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.Requests != len(tr.Requests) || s.Hotspots != len(world.Hotspots) {
		t.Errorf("summary counts wrong: %+v", s)
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("Render failed: %v", err)
	}
}
