package scheme

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tableRun is everything a run can show an observer, wall clock aside.
type tableRun struct {
	metrics *sim.Metrics
	slots   []sim.SlotMetrics
	plans   []string
	events  []byte
	// made counts the policy instances the run asked the factory for.
	made int
}

// TestSchemeTableAcrossWorkers runs every row of the scheme table (and
// the sharded and delta variants of rbcaer) at 1, 2 and 4 workers, on a
// clean trace, under churn plus stale load reports and under churn plus
// a regional outage, and requires
// what a run can show — metrics, the SlotSink, PlanSink and tracer
// sequences — to be the same at every worker count. A policy whose
// slots are not independent must be given exactly one instance however
// many workers are asked for.
func TestSchemeTableAcrossWorkers(t *testing.T) {
	// par.Workers caps at GOMAXPROCS; lift it so W = 4 is really 4.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	cfg := trace.DefaultConfig()
	cfg.NumHotspots, cfg.NumVideos, cfg.NumUsers, cfg.NumRequests = 24, 400, 600, 1800
	cfg.NumRegions, cfg.Slots = 4, 6
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	type variant struct {
		name        string
		delta       bool
		sp          shard.Params
		independent bool
	}
	var variants []variant
	for _, s := range schemes {
		variants = append(variants, variant{name: s.name, independent: s.independent(core.DefaultParams())})
	}
	variants = append(variants,
		variant{name: "rbcaer", sp: shard.Params{CellKm: 4}, independent: true},
		variant{name: "rbcaer", delta: true, independent: false},
	)
	faults := map[string]sim.Options{
		"clean": {Seed: 7},
		"churn+stale": {Seed: 7, Faults: &fault.Scenario{
			Name:      "table",
			Churn:     iidChurn(0.15),
			Staleness: &fault.StaleReports{LagSlots: 1, DropFraction: 0.2},
		}},
		"churn+outage": {Seed: 7, Faults: &fault.Scenario{
			Name:    "table-outage",
			Churn:   iidChurn(0.15),
			Outages: []fault.RegionalOutage{{Center: world.Bounds.Center(), RadiusKm: 3, StartSlot: 2, EndSlot: 4}},
		}},
	}

	run := func(t *testing.T, v variant, workers int, opts sim.Options) tableRun {
		t.Helper()
		params := core.DefaultParams()
		if v.delta {
			params.DeltaThreshold = core.DefaultDeltaThreshold
		}
		params.RecordEvents = true
		f, err := Lookup(v.name, 1.5, params, v.sp, workers)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if f.SlotsIndependent != v.independent {
			t.Fatalf("SlotsIndependent = %v, want %v", f.SlotsIndependent, v.independent)
		}
		var out tableRun
		newPolicy := f.New
		f.New = func() sim.Scheduler { out.made++; return newPolicy() }
		tracer := obs.NewTracer(1<<16, true)
		opts.Tracer = tracer
		opts.SlotSink = func(sm sim.SlotMetrics) error { out.slots = append(out.slots, sm); return nil }
		opts.PlanSink = func(slot int, plan *core.Plan) {
			out.plans = append(out.plans, fmt.Sprintf("%d:%x", slot, plan.Canonical()))
		}
		if out.metrics, err = f.Run(world, tr, workers, opts); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		out.metrics.SchedulingTime, out.metrics.WallTime, out.metrics.Phases = 0, 0, obs.PhaseTimings{}
		var evs bytes.Buffer
		if err := tracer.WriteJSONL(&evs); err != nil {
			t.Fatal(err)
		}
		out.events = evs.Bytes()
		return out
	}

	for _, v := range variants {
		for fname, opts := range faults {
			label := v.name
			if v.delta {
				label += "-delta"
			}
			if v.sp.CellKm > 0 {
				label += "-sharded"
			}
			t.Run(label+"/"+fname, func(t *testing.T) {
				ref := run(t, v, 1, opts)
				if len(ref.slots) != cfg.Slots || ref.made != 1 {
					t.Fatalf("serial run: %d slots sunk, %d instances; want %d and 1", len(ref.slots), ref.made, cfg.Slots)
				}
				for _, workers := range []int{2, 4} {
					got := run(t, v, workers, opts)
					wantMade := 1
					if v.independent {
						wantMade = workers
					}
					if got.made != wantMade {
						t.Errorf("workers=%d: %d policy instances, want %d", workers, got.made, wantMade)
					}
					if !reflect.DeepEqual(got.metrics, ref.metrics) {
						t.Errorf("workers=%d: metrics diverge:\n got %+v\nwant %+v", workers, got.metrics, ref.metrics)
					}
					if !reflect.DeepEqual(got.slots, ref.slots) {
						t.Errorf("workers=%d: SlotSink sequence diverges", workers)
					}
					if !reflect.DeepEqual(got.plans, ref.plans) {
						t.Errorf("workers=%d: PlanSink sequence diverges", workers)
					}
					if !bytes.Equal(got.events, ref.events) {
						t.Errorf("workers=%d: tracer stream diverges", workers)
					}
				}
			})
		}
	}
}

// TestLookup pins the table's edges: the names it lists resolve, others
// are refused with the list, zero params mean RBCAer's defaults, and a
// sharded request builds the sharded policy.
func TestLookup(t *testing.T) {
	for _, name := range Names() {
		f, err := Lookup(name, 1.5, core.Params{}, shard.Params{}, 1)
		if err != nil || f.New() == nil {
			t.Errorf("Lookup(%q) = %v, want a policy", name, err)
		}
	}
	if _, err := Lookup("bogus", 1.5, core.Params{}, shard.Params{}, 1); err == nil {
		t.Error("Lookup(bogus) succeeded")
	}
	f, err := Lookup("rbcaer", 0, core.Params{}, shard.Params{CellKm: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.New().Name(); got != "RBCAer-sharded" {
		t.Errorf("sharded rbcaer is %q", got)
	}
	ctx, world, _ := buildContext(t, nil)
	flat, err := Lookup("rbcaer", 0, core.Params{}, shard.Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := flat.New()
	if _, err := p.Schedule(ctx); err != nil {
		t.Fatalf("zero-params rbcaer: %v", err)
	}
	// The adapter rebuilds its scheduler when the world changes: a
	// context over a smaller world must not meet the old one's rows.
	small, _, _ := buildContext(t, func(c *trace.Config) { c.NumHotspots = len(world.Hotspots) / 2 })
	if _, err := p.Schedule(small); err != nil {
		t.Fatalf("Schedule after a world change: %v", err)
	}
}
