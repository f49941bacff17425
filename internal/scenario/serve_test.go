package scenario

import (
	"strings"
	"testing"
)

// tinyServe drives a crash/restart serve run small enough for CI.
const tinyServe = `name: tiny-serve
world:
  seed: 11
  hotspots: 16
  videos: 400
  users: 600
  requests: 2000
  slots: 4
run:
  serve: true
  instances: 3
  fsync: always
  checkpoint_every: 2
events:
  - at: slot 2
    action: crash
assert:
  - serve.crashes == 1
  - serve.plans_mismatched == 0
  - serve.plans_match == 4
  - serve.recovered_records > 0
`

// TestExecuteServeCrashRecovery runs the full serve-mode path: offline
// reference, real HTTP serving tier, abrupt kill mid-slot, restart
// from the WAL, byte-identity check, serve.* assertions.
func TestExecuteServeCrashRecovery(t *testing.T) {
	doc, err := Parse([]byte(tinyServe))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := doc.Execute(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("serve run failed:\n%s", rep.Text())
	}
	if !rep.Serve || rep.Crashes != 1 || rep.PlansMismatched != 0 || rep.PlansMatched != 4 {
		t.Fatalf("serve report = %+v", rep)
	}
	if rep.Metrics != nil {
		t.Fatal("serve run has sim metrics")
	}
	text := rep.Text()
	if !strings.Contains(text, "serve:    3 frontends, fsync always, 1 crash(es); 4/4 plans byte-identical to offline") {
		t.Fatalf("report text missing serve line:\n%s", text)
	}
}

// TestExecuteServeRejectsSimMetricAsserts: the run-level sim vocabulary
// is unavailable in serve mode and must fail the assertion loudly, not
// panic on a nil *sim.Metrics.
func TestExecuteServeRejectsSimMetricAsserts(t *testing.T) {
	src := `name: serve-bad-assert
world:
  seed: 11
  hotspots: 12
  videos: 200
  users: 200
  requests: 400
  slots: 2
run:
  serve: true
assert:
  - TotalRequests == 400
`
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := doc.Execute(ExecOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rep.Pass {
		t.Fatal("sim-metric assertion passed in serve mode")
	}
	if len(rep.Results) != 1 || !strings.Contains(rep.Results[0].Err, "not available in serve mode") {
		t.Fatalf("results = %+v", rep.Results)
	}
}

// TestServeValidation locks in the serve-mode schema rules.
func TestServeValidation(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			"crash without serve",
			"name: t\nevents:\n  - at: 1\n    action: crash\n",
			"crash needs run.serve: true",
		},
		{
			"serve keys without serve",
			"name: t\nrun:\n  instances: 3\n",
			"need run.serve: true",
		},
		{
			"serve with non-rbcaer scheme",
			"name: t\nrun:\n  serve: true\n  scheme: nearest\n",
			"run.serve requires run.scheme rbcaer",
		},
		{
			"serve with shards",
			"name: t\nrun:\n  serve: true\n  shard_cell_km: 2\n",
			"does not support sharded",
		},
		{
			"serve with churn",
			"name: t\nrun:\n  serve: true\n  churn: 0.1\n",
			"does not support churn",
		},
		{
			"serve with stress",
			"name: t\nrun:\n  serve: true\nstress:\n  outages:\n    count: 1\n    radius_km: [1, 2]\n    start: [0, 1]\n    duration: 1\n",
			"does not support the stress section",
		},
		{
			"serve with slot asserts",
			"name: t\nrun:\n  serve: true\nassert_slot:\n  - stranded >= 0\n",
			"does not support assert_slot",
		},
		{
			"serve with fault event",
			"name: t\nrun:\n  serve: true\nevents:\n  - at: 1\n    action: regional_outage\n    x: 1\n    y: 1\n    radius_km: 1\n    for: 1\n",
			"supports only crash events",
		},
		{
			"crash at slot 0",
			"name: t\nrun:\n  serve: true\nevents:\n  - at: 0\n    action: crash\n",
			"crash.at must be >= 1",
		},
		{
			"crash slots not increasing",
			"name: t\nrun:\n  serve: true\nevents:\n  - at: 2\n    action: crash\n  - at: 2\n    action: crash\n",
			"strictly increasing",
		},
		{
			"bad fsync policy",
			"name: t\nrun:\n  serve: true\n  fsync: sometimes\n",
			"run.fsync \"sometimes\"",
		},
		{
			"negative checkpoint",
			"name: t\nrun:\n  serve: true\n  checkpoint_every: -1\n",
			"checkpoint_every -1 negative",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("parsed without error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestServeCrashBeyondRun: a crash slot outside the run is an execution
// error (the slot count is only resolved at execute time).
func TestServeCrashBeyondRun(t *testing.T) {
	src := `name: t
world:
  seed: 3
  hotspots: 12
  videos: 200
  users: 200
  requests: 400
  slots: 2
run:
  serve: true
events:
  - at: 7
    action: crash
`
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Execute(ExecOptions{}); err == nil || !strings.Contains(err.Error(), "outside the 2-slot run") {
		t.Fatalf("Execute error = %v", err)
	}
}
