package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickScenario is a randomly generated scheduling scenario for
// property-based testing with testing/quick.
type quickScenario struct {
	hotspots int
	spacing  float64
	svc      int64
	cache    int
	requests int
	videos   int
	seed     int64
}

// Generate implements quick.Generator.
func (quickScenario) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(quickScenario{
		hotspots: 2 + r.Intn(12),
		spacing:  0.2 + r.Float64()*1.5,
		svc:      int64(3 + r.Intn(15)),
		cache:    1 + r.Intn(40),
		requests: 20 + r.Intn(400),
		videos:   5 + r.Intn(120),
		seed:     r.Int63(),
	})
}

var _ quick.Generator = quickScenario{}

func TestQuickPlanInvariants(t *testing.T) {
	f := func(sc quickScenario) bool {
		w := lineWorld(sc.hotspots, sc.spacing, sc.svc, sc.cache)
		d := randomDemand(w, sc.requests, sc.videos, sc.seed)
		s, err := New(w, DefaultParams())
		if err != nil {
			return false
		}
		plan, err := s.ScheduleRound(d, Constraints{})
		if err != nil {
			return false
		}
		// Reuse the full invariant checker; it fails the test on any
		// violated constraint.
		checkPlanInvariants(t, w, d, plan)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickCapacityOverrideInvariants(t *testing.T) {
	// Per-round capacity overrides (churn) must preserve every plan
	// invariant with respect to the OVERRIDDEN capacities.
	f := func(sc quickScenario) bool {
		w := lineWorld(sc.hotspots, sc.spacing, sc.svc, sc.cache)
		d := randomDemand(w, sc.requests, sc.videos, sc.seed)
		s, err := New(w, DefaultParams())
		if err != nil {
			return false
		}
		// Zero out a deterministic subset of hotspots ("offline").
		rng := rand.New(rand.NewSource(sc.seed))
		svc := make([]int64, sc.hotspots)
		for h := range svc {
			if rng.Intn(3) == 0 {
				svc[h] = 0
			} else {
				svc[h] = sc.svc
			}
		}
		plan, err := s.ScheduleRound(d, Constraints{Service: svc})
		if err != nil {
			return false
		}
		// Check the invariants against a world whose capacities match
		// the overrides (the checker reads world capacities).
		w2 := lineWorld(sc.hotspots, sc.spacing, sc.svc, sc.cache)
		for h := range w2.Hotspots {
			w2.Hotspots[h].ServiceCapacity = svc[h]
		}
		checkPlanInvariants(t, w2, d, plan)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestScheduleWithCapacitiesValidation(t *testing.T) {
	w := lineWorld(3, 1, 10, 5)
	s, err := New(w, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemand(3)
	d.Add(0, 1, 5)
	if _, err := s.ScheduleRound(d, Constraints{Service: []int64{1, 2}}); err == nil {
		t.Error("short capacity slice accepted")
	}
	if _, err := s.ScheduleRound(d, Constraints{Service: []int64{1, -2, 3}}); err == nil {
		t.Error("negative capacity accepted")
	}
	// Zero capacities everywhere: everything overflows to the CDN.
	plan, err := s.ScheduleRound(d, Constraints{Service: []int64{0, 0, 0}})
	if err != nil {
		t.Fatalf("all-zero capacities: %v", err)
	}
	if plan.OverflowToCDN[0] != 5 {
		t.Errorf("overflow = %d, want all 5 requests", plan.OverflowToCDN[0])
	}
	if plan.Stats.Replicas != 0 {
		t.Errorf("replicas = %d, want 0 (nothing serviceable)", plan.Stats.Replicas)
	}
}
