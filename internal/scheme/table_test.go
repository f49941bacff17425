package scheme

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
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
	// digest hashes, on a serial run, every slot's Assignment (placement
	// runs, targets) in slot order and then the metrics.
	digest string
}

// hashingPolicy feeds every Assignment its policy returns to h.
type hashingPolicy struct {
	sim.Scheduler
	h hash.Hash
}

func (p hashingPolicy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	a, err := p.Scheduler.Schedule(ctx)
	if err == nil {
		// The literal 0 stands where an extra-replica count was once
		// hashed, so the digests recorded with it still hold.
		fmt.Fprintf(p.h, "%d %v %v %v 0\n", ctx.Slot, a.Placement.IDs, a.Placement.Off, a.Target)
	}
	return a, err
}

// assignmentDigests pins the serial run of every scheme-table row under
// each fault mix to the bytes of its assignments and metrics (tableRun.digest).
// A refactor of a policy leaves every entry as it is; only a change
// that moves plans on purpose regenerates them.
var assignmentDigests = map[string]string{
	"TestSchemeTableAcrossWorkers/rbcaer/clean":                "e7e7e5cc043dff04",
	"TestSchemeTableAcrossWorkers/rbcaer/churn+stale":          "bec41ee9d27d0353",
	"TestSchemeTableAcrossWorkers/rbcaer/churn+outage":         "7811061f4cef563d",
	"TestSchemeTableAcrossWorkers/nearest/clean":               "b31fec73437afda6",
	"TestSchemeTableAcrossWorkers/nearest/churn+stale":         "397f1581d139043e",
	"TestSchemeTableAcrossWorkers/nearest/churn+outage":        "bf6a052deb945460",
	"TestSchemeTableAcrossWorkers/random/clean":                "00c0de3a8394068e",
	"TestSchemeTableAcrossWorkers/random/churn+stale":          "125f44892dc854be",
	"TestSchemeTableAcrossWorkers/random/churn+outage":         "19c7398c7e4faa28",
	"TestSchemeTableAcrossWorkers/lp/clean":                    "4d88d0b38734c3f8",
	"TestSchemeTableAcrossWorkers/lp/churn+stale":              "18d85479fdfe4929",
	"TestSchemeTableAcrossWorkers/lp/churn+outage":             "8c82ae681ca88824",
	"TestSchemeTableAcrossWorkers/hier/clean":                  "596b5454c75628e9",
	"TestSchemeTableAcrossWorkers/hier/churn+stale":            "3856c8463e4e2b19",
	"TestSchemeTableAcrossWorkers/hier/churn+outage":           "c472fe37e5cc9bfc",
	"TestSchemeTableAcrossWorkers/p2c/clean":                   "d132d458e843da23",
	"TestSchemeTableAcrossWorkers/p2c/churn+stale":             "596b7a3296334bda",
	"TestSchemeTableAcrossWorkers/p2c/churn+outage":            "07d5b6734215b1c1",
	"TestSchemeTableAcrossWorkers/rbcaer-sharded/clean":        "34de4c7badb8a446",
	"TestSchemeTableAcrossWorkers/rbcaer-sharded/churn+stale":  "60b842fbd1753d61",
	"TestSchemeTableAcrossWorkers/rbcaer-sharded/churn+outage": "bfedb2d8a33116c2",
	// The delta variant's assignments equal the full round's on this world.
	"TestSchemeTableAcrossWorkers/rbcaer-delta/clean":        "e7e7e5cc043dff04",
	"TestSchemeTableAcrossWorkers/rbcaer-delta/churn+stale":  "bec41ee9d27d0353",
	"TestSchemeTableAcrossWorkers/rbcaer-delta/churn+outage": "7811061f4cef563d",
}

// TestSchemeTableAcrossWorkers runs every row of the scheme table (and
// the sharded and delta variants of rbcaer) at 1, 2 and 4 workers, on a
// clean trace, under churn plus stale load reports and under churn plus
// a regional outage, and requires
// what a run can show — metrics, the SlotSink, PlanSink and tracer
// sequences — to be the same at every worker count, and the serial
// run's assignments and metrics to hash to assignmentDigests. A policy whose
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
		digest := sha256.New()
		f.New = func() sim.Scheduler {
			out.made++
			if workers == 1 {
				return hashingPolicy{newPolicy(), digest}
			}
			return newPolicy()
		}
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
		if workers == 1 {
			fmt.Fprintf(digest, "%+v", *out.metrics)
			out.digest = fmt.Sprintf("%x", digest.Sum(nil)[:8])
		}
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
				if want := assignmentDigests[t.Name()]; ref.digest != want {
					t.Errorf("serial run's assignments and metrics hash to %s, want %s", ref.digest, want)
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
