package sim

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// runObs executes one observed run and returns the deterministic
// registry snapshot (JSON) and trace stream (JSONL) bytes. workers 0
// selects sequential Run.
func runObs(t *testing.T, world *trace.World, tr *trace.Trace, workers int, opts Options) (snapshot, events []byte) {
	t.Helper()
	opts.Registry = obs.NewRegistry()
	opts.Tracer = obs.NewTracer(1<<16, true)
	var err error
	if workers == 0 {
		_, err = Run(world, tr, resilientPolicy{}, opts)
	} else {
		_, err = RunParallel(world, tr, func() Scheduler { return resilientPolicy{} }, workers, opts)
	}
	if err != nil {
		t.Fatalf("run(workers=%d): %v", workers, err)
	}
	var snap, evs bytes.Buffer
	if err := opts.Registry.Snapshot(false).WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if err := opts.Tracer.WriteJSONL(&evs); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), evs.Bytes()
}

// TestObsDeterminism is the tentpole acceptance at the simulator level:
// with observability fully enabled — registry publishing and a
// deterministic (dropTimings) tracer — Run and RunParallel at Workers
// ∈ {1, 4, 8} must produce byte-identical metric snapshots and trace
// event sequences on a fixed seed, both on a clean run and under the
// full stress fault timeline. Run with -race this doubles as the
// race-regression test for RunParallel with faults + tracing enabled.
func TestObsDeterminism(t *testing.T) {
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

	scenarios := map[string]Options{
		"clean":  {Seed: 11},
		"faults": {Seed: 11, HotspotChurn: 0.1, Faults: stressScenario(world)},
	}
	for name, opts := range scenarios {
		t.Run(name, func(t *testing.T) {
			refSnap, refEvents := runObs(t, world, tr, 0, opts)
			if !bytes.Contains(refSnap, []byte("sim.requests_total")) {
				t.Fatalf("snapshot missing sim counters:\n%s", refSnap)
			}
			if !bytes.Contains(refEvents, []byte(`"type":"slot"`)) {
				t.Fatalf("trace missing slot events:\n%s", refEvents)
			}
			if bytes.Contains(refSnap, []byte("timers")) {
				t.Fatalf("deterministic snapshot leaked timers:\n%s", refSnap)
			}
			if bytes.Contains(refEvents, []byte("sched_dur")) {
				t.Fatalf("dropTimings tracer leaked a duration attr:\n%s", refEvents)
			}
			for _, workers := range []int{1, 4, 8} {
				snap, events := runObs(t, world, tr, workers, opts)
				if !bytes.Equal(refSnap, snap) {
					t.Errorf("workers=%d: metric snapshot diverges from sequential Run", workers)
				}
				if !bytes.Equal(refEvents, events) {
					t.Errorf("workers=%d: trace event stream diverges from sequential Run", workers)
				}
			}
		})
	}
}
