package scenario

import (
	"slices"
	"strings"
	"testing"
)

// tinyRun is a fast fault-active document used by the execution tests.
const tinyRun = `name: tiny
world:
  seed: 9
  hotspots: 25
  videos: 400
  users: 300
  requests: 1200
  slots: 4
run:
  scheme: rbcaer
events:
  - at: 1
    action: regional_outage
    x: 5
    y: 5
    radius_km: 2
    for: 2
assert:
  - TotalRequests == 1200
  - fault.cause.outage >= 0
assert_slot:
  - stranded >= 0
`

// tinyShardedRun drives the sharded scheduling path (run.shard_cell_km)
// through a fault window.
const tinyShardedRun = `name: tiny-sharded
world:
  seed: 9
  hotspots: 25
  videos: 400
  users: 300
  requests: 1200
  slots: 4
run:
  scheme: rbcaer
  shard_cell_km: 5
events:
  - at: 1
    action: regional_outage
    x: 5
    y: 5
    radius_km: 2
    for: 2
assert:
  - TotalRequests == 1200
  - shard.rounds > 0
  - shard.boundary.moved_flow >= 0
assert_slot:
  - stranded >= 0
`

// TestExecuteShardedDeterministic mirrors the headline determinism
// contract for the sharded path: byte-identical reports at Workers 1
// and 4 (shard pools and slot pools both scale with Workers).
func TestExecuteShardedDeterministic(t *testing.T) {
	texts := make([]string, 2)
	for i, workers := range []int{1, 4} {
		doc, err := Parse([]byte(tinyShardedRun))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := doc.Execute(ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Pass {
			t.Fatalf("workers=%d: report failed:\n%s", workers, rep.Text())
		}
		texts[i] = rep.Text()
	}
	if texts[0] != texts[1] {
		t.Fatalf("sharded reports differ between Workers 1 and 4:\n--- w1:\n%s\n--- w4:\n%s", texts[0], texts[1])
	}
}

// TestExecuteReportDeterministic certifies the DSL's headline contract:
// the same file produces byte-identical reports at Workers 1 and 4
// (run under -race in CI).
func TestExecuteReportDeterministic(t *testing.T) {
	texts := make([]string, 2)
	for i, workers := range []int{1, 4} {
		doc, err := Parse([]byte(tinyRun))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := doc.Execute(ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Pass {
			t.Fatalf("workers=%d: report failed:\n%s", workers, rep.Text())
		}
		texts[i] = rep.Text()
	}
	if texts[0] != texts[1] {
		t.Fatalf("reports differ between Workers 1 and 4:\n--- w1:\n%s\n--- w4:\n%s", texts[0], texts[1])
	}
}

// TestExecuteEventBeyondRun: an event that starts after the run's last
// slot would never fire, so Parse refuses it (the world section, decoded
// first, fixes the slot count) instead of passing a run the event never
// touched.
func TestExecuteEventBeyondRun(t *testing.T) {
	src := strings.Replace(tinyRun, "  - at: 1\n", "  - at: 9\n", 1)
	_, err := Parse([]byte(src))
	if want := "scenario: events[0]: regional_outage.at 9 outside the 4-slot run"; err == nil || err.Error() != want {
		t.Fatalf("Parse error = %v, want %q", err, want)
	}
}

func TestExecuteFailingAssertion(t *testing.T) {
	src := strings.Replace(tinyRun, "TotalRequests == 1200", "TotalRequests == 1", 1)
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := doc.Execute(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("violated assertion reported Pass")
	}
	if rep.Results[0].Pass || rep.Results[0].Value != 1200 {
		t.Fatalf("result[0] = %+v, want fail at value 1200", rep.Results[0])
	}
	if !strings.Contains(rep.Text(), "FAIL TotalRequests == 1") {
		t.Fatalf("report does not name the failed assertion:\n%s", rep.Text())
	}
	if !strings.Contains(rep.Text(), "result: FAIL") {
		t.Fatalf("report verdict not FAIL:\n%s", rep.Text())
	}
}

func TestExecuteUnknownCounterFailsAssertion(t *testing.T) {
	src := strings.Replace(tinyRun, "fault.cause.outage >= 0", "fault.cause.meteor >= 0", 1)
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := doc.Execute(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("assertion on a missing counter passed")
	}
	if rep.Results[1].Err == "" || !strings.Contains(rep.Results[1].Err, "fault.cause.meteor") {
		t.Fatalf("result[1] = %+v, want evaluation error naming the counter", rep.Results[1])
	}
}

func TestExecuteSlotWindowViolation(t *testing.T) {
	// The outage spans slots [1, 3); requiring zero stranding there must
	// fail, and the report must pin the first violating slot.
	src := strings.Replace(tinyRun, "stranded >= 0", "expr: stranded == 0\n    from: 1\n    to: 3", 1)
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := doc.Execute(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Skip("outage stranded nothing in this world; window test not applicable")
	}
	r := rep.SlotResults[0]
	if r.Violations == 0 || r.FirstSlot < 1 || r.FirstSlot >= 3 {
		t.Fatalf("slot result = %+v, want violation inside [1, 3)", r)
	}
	if r.Checked != 2 {
		t.Fatalf("checked = %d, want 2 (window [1, 3))", r.Checked)
	}
}

func TestExecuteFailFastAborts(t *testing.T) {
	src := strings.Replace(tinyRun, "run:\n  scheme: rbcaer", "run:\n  scheme: rbcaer\n  fail_fast: true", 1)
	src = strings.Replace(src, "stranded >= 0", "expr: stranded == 0\n    from: 1\n    to: 3", 1)
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Spec.FailFast {
		t.Fatal("fail_fast not decoded")
	}
	rep, err := doc.Execute(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Skip("outage stranded nothing in this world; fail-fast not triggered")
	}
	if !rep.Aborted {
		t.Fatalf("fail_fast run not aborted: %+v", rep)
	}
	if rep.Metrics != nil {
		t.Fatal("aborted run still carries final metrics")
	}
	if !strings.Contains(rep.Text(), "run aborted at slot") {
		t.Fatalf("report does not state the abort:\n%s", rep.Text())
	}
}

func TestExecuteThetaRegimes(t *testing.T) {
	src := strings.Replace(tinyRun,
		"events:",
		"events:\n  - action: theta\n    at: 2\n    theta1: 1\n    theta2: 2.5",
		1)
	doc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if want := []ThetaChange{{At: 2, Theta1: 1, Theta2: 2.5, DeltaD: -1}}; !slices.Equal(doc.Thetas, want) {
		t.Fatalf("thetas = %+v, want %+v", doc.Thetas, want)
	}
	if len(doc.Faults.Outages) != 1 {
		t.Fatalf("faults = %+v, want the one outage", doc.Faults)
	}
	texts := make([]string, 2)
	for i, workers := range []int{1, 4} {
		rep, err := doc.Execute(ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		texts[i] = rep.Text()
	}
	if len(doc.Faults.Outages) != 1 {
		t.Fatalf("Execute changed the doc's faults: %+v", doc.Faults)
	}
	if texts[0] != texts[1] {
		t.Fatalf("theta reports differ across worker counts:\n%s\n---\n%s", texts[0], texts[1])
	}
}

func TestExecuteAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, s := range []string{"nearest", "random", "p2c", "lp", "hier"} {
		s := s
		t.Run(s, func(t *testing.T) {
			src := strings.Replace(tinyRun, "scheme: rbcaer", "scheme: "+s, 1)
			doc, err := Parse([]byte(src))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := doc.Execute(ExecOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Metrics == nil || rep.Metrics.TotalRequests != 1200 {
				t.Fatalf("scheme %s: metrics = %+v", s, rep.Metrics)
			}
		})
	}
}
