package fault

import (
	"testing"

	"repro/internal/obs"
)

func TestTimelineCounts(t *testing.T) {
	world := lineWorld(12)
	tl, err := Compile(world, 10, 7, fullScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	c := tl.counts
	if c.OutageSlots <= 0 {
		t.Errorf("OutageSlots = %d, want > 0 (outage covers slots [2, 4))", c.OutageSlots)
	}
	if c.DegradedSlots <= 0 {
		t.Errorf("DegradedSlots = %d, want > 0 (degradation covers slots [1, 5))", c.DegradedSlots)
	}
	if c.DroppedReports <= 0 {
		t.Errorf("DroppedReports = %d, want > 0 (25%% drop fraction)", c.DroppedReports)
	}
	// Churn with fail 0.2 over 12 hotspots x 10 slots flips some slots
	// offline with overwhelming probability on this seed.
	if c.ChurnSlots <= 0 {
		t.Errorf("ChurnSlots = %d, want > 0", c.ChurnSlots)
	}
	// The outage region [x=1 ± 1.5 km] covers hotspots 0..2 for 2
	// slots: outage-cause offline pairs can't exceed 3*2 plus nothing.
	if c.OutageSlots > 6 {
		t.Errorf("OutageSlots = %d, want <= 6 (3 hotspots x 2 slots)", c.OutageSlots)
	}
}

func TestTimelineCountsEmpty(t *testing.T) {
	world := lineWorld(4)
	tl, err := Compile(world, 5, 1, &Scenario{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := tl.counts; got != (CauseCounts{}) {
		t.Fatalf("empty scenario counts = %+v, want zero", got)
	}
	// Nil-safety: publishing a nil timeline must not panic.
	var nilTL *Timeline
	nilTL.Publish(obs.NewRegistry())
}

func TestTimelinePublish(t *testing.T) {
	world := lineWorld(12)
	tl, err := Compile(world, 10, 7, fullScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	reg := obs.NewRegistry()
	tl.Publish(reg)
	tl.Publish(nil) // nil registry is a no-op, not a panic

	snap := reg.Snapshot(false)
	want := map[string]bool{
		"fault.cause.churn":       false,
		"fault.cause.outage":      false,
		"fault.cause.degradation": false,
		"fault.cause.stale_drops": false,
	}
	for _, c := range snap.Counters {
		if _, ok := want[c.Name]; ok {
			want[c.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("counter %s not published", name)
		}
	}
	counts := tl.counts
	for _, c := range snap.Counters {
		switch c.Name {
		case "fault.cause.outage":
			if c.Value != counts.OutageSlots {
				t.Errorf("%s = %d, want %d", c.Name, c.Value, counts.OutageSlots)
			}
		case "fault.cause.stale_drops":
			if c.Value != counts.DroppedReports {
				t.Errorf("%s = %d, want %d", c.Name, c.Value, counts.DroppedReports)
			}
		}
	}
}
