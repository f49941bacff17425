package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/trace"
)

// overloadedDemand puts surplus on hotspot 0 with slack next door so a
// healthy round would move flow.
func overloadedDemand(m int) *Demand {
	d := NewDemand(m)
	for v := 0; v < 15; v++ {
		d.Add(0, trace.VideoID(1+v), 1)
	}
	for h := 1; h < m; h++ {
		d.Add(trace.HotspotID(h), 1, 2)
	}
	return d
}

func TestSolverFailureIsRecoverable(t *testing.T) {
	cases := []struct {
		name string
		stub func(*mcmf.Graph, int, int) (mcmf.Result, error)
	}{
		{"error", func(*mcmf.Graph, int, int) (mcmf.Result, error) {
			return mcmf.Result{}, fmt.Errorf("injected solver failure")
		}},
		{"panic", func(*mcmf.Graph, int, int) (mcmf.Result, error) {
			panic("injected solver panic")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := solveFn
			solveFn = tc.stub
			defer func() { solveFn = orig }()

			w := lineWorld(3, 1.0, 10, 50)
			p := DefaultParams()
			reg := obs.NewRegistry()
			p.Obs = reg
			p.RecordEvents = true
			s, err := New(w, p)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			d := overloadedDemand(3)
			plan, err := s.ScheduleRound(d, Constraints{})
			if err != nil {
				t.Fatalf("ScheduleRound with failing solver: %v", err)
			}
			checkPlanInvariants(t, w, d, plan)
			if !plan.Degraded {
				t.Error("recovered-solver round not marked Degraded")
			}
			if plan.Stats.RecoveredErrors == 0 {
				t.Error("RecoveredErrors = 0 despite every solve failing")
			}
			if len(plan.Flows) != 0 {
				t.Errorf("failing solver still produced flows %v", plan.Flows)
			}
			if plan.OverflowToCDN[0] != 5 {
				t.Errorf("overflow at hotspot 0 = %d, want full surplus 5", plan.OverflowToCDN[0])
			}
			sawDegraded := false
			for _, ev := range plan.Events {
				sawDegraded = sawDegraded || ev.Type == "degraded"
			}
			if !sawDegraded {
				t.Error("no degraded event recorded")
			}
			if v, _ := counterValue(reg.Snapshot(false), "core.degraded_rounds"); v != 1 {
				t.Errorf("core.degraded_rounds = %d, want 1", v)
			}
		})
	}
}

func TestScheduleRoundRejectsBadInput(t *testing.T) {
	w := lineWorld(2, 1.0, 10, 50)
	s, err := New(w, DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	negDemand := NewDemand(2)
	negDemand.Totals[0] = -1

	cases := []struct {
		name string
		d    *Demand
		cons Constraints
		want string
	}{
		{"nil demand", nil, Constraints{}, "nil demand"},
		{"hotspot mismatch", NewDemand(3), Constraints{}, "hotspots"},
		{"negative demand", negDemand, Constraints{}, "negative demand"},
		{"short capacities", NewDemand(2), Constraints{Service: []int64{1}}, "capacities"},
		{"negative capacity", NewDemand(2), Constraints{Service: []int64{1, -1}}, "negative capacity"},
		{"short cache", NewDemand(2), Constraints{Cache: []int{1}}, "cache capacities"},
		{"negative cache", NewDemand(2), Constraints{Cache: []int{1, -1}}, "negative cache"},
	}
	for _, tc := range cases {
		_, err := s.ScheduleRound(tc.d, tc.cons)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestZeroCacheStrandsSurplus(t *testing.T) {
	w := lineWorld(3, 1.0, 10, 50)
	s, err := New(w, DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := overloadedDemand(3)
	plan, err := s.ScheduleRound(d, Constraints{Cache: []int{0, 0, 0}})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	for h := 0; h < plan.Placement.Rows(); h++ {
		if n := plan.Placement.Len(h); n != 0 {
			t.Errorf("hotspot %d placed %d videos with zero cache", h, n)
		}
	}
	if len(plan.Redirects) != 0 {
		t.Errorf("redirects %v without any placement", plan.Redirects)
	}
	// Moved flow cannot be realised without cache space: the full
	// surplus falls back to the CDN.
	if plan.OverflowToCDN[0] != 5 || plan.Stats.StrandedToCDN != 5 {
		t.Errorf("overflow=%d stranded=%d, want both 5",
			plan.OverflowToCDN[0], plan.Stats.StrandedToCDN)
	}
}

func TestDegradedCacheBoundsPlacement(t *testing.T) {
	w := lineWorld(3, 1.0, 10, 50)
	s, err := New(w, DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := overloadedDemand(3)
	cache := []int{1, 1, 1}
	plan, err := s.ScheduleRound(d, Constraints{Cache: cache})
	if err != nil {
		t.Fatalf("ScheduleRound: %v", err)
	}
	for h := 0; h < plan.Placement.Rows(); h++ {
		if n := plan.Placement.Len(h); n > cache[h] {
			t.Errorf("hotspot %d placed %d videos, degraded cache is %d", h, n, cache[h])
		}
	}
}

func TestHealthyRoundNotDegraded(t *testing.T) {
	w := lineWorld(3, 1.0, 10, 50)
	d := overloadedDemand(3)
	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Degraded || plan.Stats.Degraded {
		t.Errorf("healthy round marked degraded: %+v", plan.Stats)
	}
	if plan.Stats.RecoveredErrors != 0 {
		t.Errorf("healthy round recorded %d recovered errors", plan.Stats.RecoveredErrors)
	}
}
