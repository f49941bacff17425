package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/scheme"
	"repro/internal/trace"
)

// minDoc wraps an events/assert fragment into a parseable document.
func minDoc(body string) []byte {
	return []byte("name: t\n" + body)
}

func TestParseFullDocument(t *testing.T) {
	src := []byte(`name: full
description: exercises every section
world:
  seed: 5
  hotspots: 30
  videos: 500
  slots: 4
run:
  scheme: rbcaer
  fail_fast: true
events:
  - at: slot 1
    action: regional_outage
    x: 2
    y: 3
    radius_km: 1.5
    for: 2
  - action: churn
    fail: 0.1
    recover: 0.5
  - at: 2
    action: theta
    theta1: 1
    delta_d: 0.25
stress:
  seed: 42
  outages:
    count: 2
    radius_km: [1, 2]
    start: [0, 2]
    duration: 1
assert:
  - StrandedRequests < 100
  - fault.cause.outage > 0
assert_slot:
  - degraded == false
  - expr: stranded < 50
    from: 1
    to: 3
`)
	doc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "full" {
		t.Fatalf("doc header = %+v", doc)
	}
	// The world section writes over the generator defaults.
	world := trace.DefaultConfig()
	world.Seed, world.NumHotspots, world.NumVideos, world.Slots = 5, 30, 500, 4
	if doc.World != world {
		t.Fatalf("world = %+v, want %+v", doc.World, world)
	}
	if !doc.Spec.FailFast {
		t.Fatalf("run spec = %+v", doc.Spec)
	}
	faults := fault.Scenario{
		Name:    "full",
		Churn:   &fault.MarkovChurn{FailPerSlot: 0.1, RecoverPerSlot: 0.5},
		Outages: []fault.RegionalOutage{{Center: geo.Point{X: 2, Y: 3}, RadiusKm: 1.5, StartSlot: 1, EndSlot: 3}},
	}
	if !reflect.DeepEqual(doc.Faults, faults) {
		t.Fatalf("faults = %+v, want %+v", doc.Faults, faults)
	}
	if want := []ThetaChange{{At: 2, Theta1: 1, Theta2: -1, DeltaD: 0.25}}; !slices.Equal(doc.Thetas, want) {
		t.Fatalf("thetas = %+v, want %+v", doc.Thetas, want)
	}
	if doc.Crashes != nil {
		t.Fatalf("crashes = %v in a simulator run", doc.Crashes)
	}
	if doc.Stress == nil || !doc.Stress.SeedSet || doc.Stress.Seed != 42 || doc.Stress.Outages.Count != 2 {
		t.Fatalf("stress = %+v", doc.Stress)
	}
	if len(doc.Asserts) != 2 || doc.Asserts[1].Ident != "fault.cause.outage" {
		t.Fatalf("asserts = %+v", doc.Asserts)
	}
	if len(doc.SlotAsserts) != 2 {
		t.Fatalf("slot asserts = %+v", doc.SlotAsserts)
	}
	if w := doc.SlotAsserts[1]; w.From != 1 || w.To != 3 || w.Ident != "stranded" {
		t.Fatalf("windowed slot assert = %+v", w)
	}
	if !doc.SlotAsserts[0].IsBool || doc.SlotAsserts[0].BoolValue {
		t.Fatalf("degraded assert = %+v", doc.SlotAsserts[0])
	}
}

// TestParseErrors is the malformed-input table: every event family and
// assertion form has at least one rejection case, and each error names
// enough context to find the offending line.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown top key", "bogus: 1\n", `unknown key "bogus"`},
		{"unknown world key", "world:\n  hotspot: 3\n", `unknown key "hotspot"`},
		{"bad world int", "world:\n  hotspots: many\n", "not an integer"},
		{"unknown scheme", "run:\n  scheme: dijkstra\n", `unknown run.scheme "dijkstra"`},
		{"retired key churn", "run:\n  churn: 0.1\n", `line 3: unknown key "churn" in run`},
		{"retired key delta", "run:\n  scheme: rbcaer\n  delta: true\n", `line 4: unknown key "delta" in run`},
		{"retired key delta_every", "run:\n  delta_every: 4\n", `line 3: unknown key "delta_every" in run`},
		{"retired key delta_threshold", "run:\n  delta_threshold: 0.5\n", `line 3: unknown key "delta_threshold" in run`},
		{"retired key delta_verify", "run:\n  delta_verify: true\n", `line 3: unknown key "delta_verify" in run`},

		{"event no action", "events:\n  - at: 1\n    for: 2\n", `missing "action"`},
		{"event bad action", "events:\n  - action: meteor\n", "unknown action"},
		{"events not seq", "events:\n  action: churn\n", "must be a sequence"},
		{"outage no window", "events:\n  - action: regional_outage\n    radius_km: 1\n", `needs "for" (slots) or "until"`},
		{"outage both windows", "events:\n  - action: regional_outage\n    radius_km: 1\n    for: 2\n    until: 3\n", `"for" or "until", not both`},
		{"outage no radius", "events:\n  - action: regional_outage\n    for: 2\n", "radius_km >= 0"},
		{"bad at", "events:\n  - action: regional_outage\n    radius_km: 1\n    at: noon\n    for: 2\n", "not a slot number"},
		{"churn windowed", "events:\n  - action: churn\n    at: 3\n", "churn is whole-run"},
		{"stale windowed", "events:\n  - action: stale_reports\n    at: 2\n", "stale_reports is whole-run"},
		{"duplicate churn", "events:\n  - action: churn\n    fail: 0.1\n  - action: churn\n    fail: 0.2\n", "duplicate churn"},
		{"duplicate stale", "events:\n  - action: stale_reports\n    lag: 1\n  - action: stale_reports\n    lag: 2\n", "duplicate stale_reports"},
		{"event unknown key", "events:\n  - action: flash_crowd\n    top_videos: 2\n    multiplier: 3\n    for: 1\n    surprise: 1\n", `unknown key "surprise"`},
		{"sharding non-rbcaer", "run:\n  scheme: nearest\n  shard_cell_km: 4\n", "sharding requires run.scheme rbcaer"},
		{"retired key shards", "run:\n  shards: 2\n", `line 3: unknown key "shards" in run`},
		{"negative shard cell", "run:\n  shard_cell_km: -2\n", "negative"},
		{"theta with shards", "run:\n  shard_cell_km: 2\nevents:\n  - action: theta\n    at: 2\n", "incompatible with sharded"},

		{"theta non-rbcaer", "run:\n  scheme: lp\nevents:\n  - action: theta\n    at: 2\n    theta1: 1\n", "theta requires run.scheme rbcaer"},
		{"theta order", "world:\n  slots: 6\nevents:\n  - action: theta\n    at: 4\n  - action: theta\n    at: 2\n", "strictly increasing"},
		{"churn event and stress", "events:\n  - action: churn\n    fail: 0.1\nstress:\n  churn:\n    fail: 0.2\n", "keep one"},

		{"assert not seq", "assert: StrandedRequests < 5\n", "must be a sequence"},
		{"assert arity", "assert:\n  - StrandedRequests <\n", `must be "ident op value"`},
		{"assert bad op", "assert:\n  - StrandedRequests ~ 5\n", "unknown operator"},
		{"assert bad value", "assert:\n  - StrandedRequests < five\n", "not a number or bool"},
		{"assert unknown ident", "assert:\n  - Strandedness < 5\n", "unknown run metric"},
		{"assert run bool", "assert:\n  - StrandedRequests == true\n", "run-level assertions are numeric"},
		{"slot unknown ident", "assert_slot:\n  - latency < 5\n", "unknown slot metric"},
		{"slot bool ident", "assert_slot:\n  - stranded == true\n", `only "degraded" is boolean`},
		{"bool ordering op", "assert_slot:\n  - degraded < true\n", "only == and !="},
		{"slot window empty", "assert_slot:\n  - expr: stranded < 5\n    from: 3\n    to: 2\n", "bad slot window"},
		{"slot missing expr", "assert_slot:\n  - from: 1\n    to: 2\n", `missing "expr"`},
		{"stress unknown key", "stress:\n  quakes: 1\n", `unknown key "quakes"`},
		{"stress seed not an integer", "stress:\n  seed: 7abc\n", `stress.seed: "7abc" is not an integer`},
		{"stress bad fleet weight", "stress:\n  fleet:\n    - name: a\n      weight: 0\n", "weight must be positive"},
		{"stress inverted range", "stress:\n  outages:\n    radius_km: [3, 1]\n", "hi < lo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(minDoc(tc.body))
			if err == nil {
				t.Fatalf("Parse accepted malformed doc:\n%s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseAcceptsTheSchemeTable: run.scheme takes exactly the scheme
// table's names.
func TestParseAcceptsTheSchemeTable(t *testing.T) {
	for _, name := range append(scheme.Names(), "bogus") {
		_, err := Parse([]byte("name: s\nrun:\n  scheme: " + name + "\n"))
		if want := name != "bogus"; (err == nil) != want {
			t.Errorf("run.scheme %q: err = %v, accepted should be %v", name, err, want)
		}
	}
}

func TestParseMissingName(t *testing.T) {
	_, err := Parse([]byte("world:\n  seed: 1\n"))
	if err == nil || !strings.Contains(err.Error(), `missing required key "name"`) {
		t.Fatalf("error = %v, want missing-name rejection", err)
	}
}

func TestParseAtForms(t *testing.T) {
	for _, at := range []string{"3", `"slot 3"`} {
		src := minDoc("world:\n  slots: 6\nevents:\n  - action: regional_outage\n    at: " + at + "\n    radius_km: 1\n    for: 2\n")
		doc, err := Parse(src)
		if err != nil {
			t.Fatalf("at: %s: %v", at, err)
		}
		if o := doc.Faults.Outages[0]; o.StartSlot != 3 || o.EndSlot != 5 {
			t.Fatalf("at: %s: outage = %+v", at, o)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/scenario.yaml"); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}
