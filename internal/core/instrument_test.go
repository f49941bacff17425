package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// overloadDemand concentrates demand on hotspot 0 so the round has both
// overloaded and underutilized hotspots and real flow to move.
func overloadDemand(n int) *Demand {
	d := NewDemand(n)
	for v := 0; v < 20; v++ {
		d.Add(0, trace.VideoID(v), 1)
	}
	d.Add(1, 100, 1)
	return d
}

func counterValue(snap obs.Snapshot, name string) (int64, bool) {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

func TestScheduleObservability(t *testing.T) {
	params := DefaultParams()
	reg := obs.NewRegistry()
	params.Obs = reg
	params.RecordEvents = true
	s, err := New(lineWorld(6, 1, 5, 4), params)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.ScheduleRound(overloadDemand(6), Constraints{})
	if err != nil {
		t.Fatal(err)
	}

	types := map[string]int{}
	for _, ev := range plan.Events {
		types[ev.Type]++
		if ev.Slot != -1 {
			t.Errorf("event %q carries slot %d before the simulator stamps it", ev.Type, ev.Slot)
		}
	}
	for _, want := range []string{"cluster", "theta-iter", "round"} {
		if types[want] == 0 {
			t.Errorf("no %q event recorded (got %v)", want, types)
		}
	}

	snap := reg.Snapshot(true)
	if v, ok := counterValue(snap, "core.rounds"); !ok || v != 1 {
		t.Errorf("core.rounds = %d, %v; want 1, true", v, ok)
	}
	if v, ok := counterValue(snap, "core.max_flow"); !ok || v != plan.Stats.MaxFlow {
		t.Errorf("core.max_flow = %d, %v; want %d", v, ok, plan.Stats.MaxFlow)
	}
	if v, ok := counterValue(snap, "core.theta_iterations"); !ok || v != int64(plan.Stats.Iterations) {
		t.Errorf("core.theta_iterations = %d, %v; want %d", v, ok, plan.Stats.Iterations)
	}
	if len(snap.Timers) == 0 {
		t.Error("timed snapshot has no phase timers")
	}
	if reg.Snapshot(false).Timers != nil {
		t.Error("deterministic snapshot leaks wall-clock timers")
	}
}

// TestScheduleObsDisabled locks the uninstrumented contract: no registry
// and no event recording means no events and zero phase marks beyond
// what the scheduler measures for its own stats.
func TestScheduleObsDisabled(t *testing.T) {
	s, err := New(lineWorld(6, 1, 5, 4), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.ScheduleRound(overloadDemand(6), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 0 {
		t.Errorf("disabled run recorded %d events", len(plan.Events))
	}
	if plan.Stats.Phases.Total() != 0 {
		t.Errorf("disabled run measured phases %v", plan.Stats.Phases)
	}
}
