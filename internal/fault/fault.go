// Package fault is a deterministic fault-injection layer for the
// crowdsourced-CDN simulator. The paper's premise is that hotspots are
// unreliable consumer edge devices, yet i.i.d. per-slot churn misses
// the regimes where naive policies collapse: correlated outages, bursty
// device sessions, flash crowds, and schedulers acting on stale state.
// This package composes those failure modes on top of any world/trace
// pair:
//
//   - MarkovChurn: per-hotspot on/off Markov sessions (bursty
//     multi-slot outages, or independent coin flips when the two
//     transition probabilities sum to 1),
//   - RegionalOutage: geographically correlated failures — every
//     hotspot within a radius goes dark for a slot window,
//   - CapacityDegradation: service and/or cache capacity scaled down
//     (an overloaded or throttled device, not a dead one),
//   - FlashCrowd: demand spikes — the window's hottest videos have
//     their requests multiplied,
//   - StaleReports: the scheduler sees load reports from k slots ago
//     and/or with a fraction of hotspots' reports missing, while the
//     simulator still serves the true demand.
//
// Everything is compiled up front into a Timeline — a pure function of
// (world, slots, seed, scenario) — so injection is byte-for-byte
// deterministic and independent of how, or how concurrently, the slots
// are later scheduled. sim.Run and sim.RunParallel therefore produce
// identical metrics under any worker count for the same scenario.
package fault

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Cause labels why an injected fault took a hotspot offline for a slot.
type Cause uint8

const (
	// CauseNone means the hotspot is online (no injected outage).
	CauseNone Cause = iota
	// CauseChurn is a Markov session outage (the device left).
	CauseChurn
	// CauseOutage is a correlated regional outage.
	CauseOutage
)

// MarkovChurn models bursty hotspot sessions as a per-hotspot two-state
// Markov chain evolved once per slot: an online hotspot fails with
// probability FailPerSlot, an offline one recovers with probability
// RecoverPerSlot. The steady-state offline fraction is
// Fail/(Fail+Recover), and mean outage length is 1/RecoverPerSlot slots.
// With Fail = p and Recover = 1 − p, both transitions into offline have
// probability p, so every (slot, hotspot) is offline with probability p
// independent of its past: i.i.d. churn, and at p = 1 the whole fleet
// down every slot.
type MarkovChurn struct {
	FailPerSlot    float64
	RecoverPerSlot float64
}

// Validate checks the chain's probabilities.
func (c *MarkovChurn) Validate() error {
	if c.FailPerSlot < 0 || c.FailPerSlot > 1 {
		return fmt.Errorf("fault: FailPerSlot %v outside [0, 1]", c.FailPerSlot)
	}
	if c.RecoverPerSlot < 0 || c.RecoverPerSlot > 1 {
		return fmt.Errorf("fault: RecoverPerSlot %v outside [0, 1]", c.RecoverPerSlot)
	}
	if c.FailPerSlot > 0 && c.FailPerSlot < 1 && c.RecoverPerSlot == 0 {
		return fmt.Errorf("fault: FailPerSlot %v with RecoverPerSlot 0 permanently absorbs the fleet", c.FailPerSlot)
	}
	return nil
}

// RegionalOutage takes every hotspot within RadiusKm of Center offline
// for slots in [StartSlot, EndSlot) — a neighbourhood power cut or
// backhaul failure, the correlated regime where per-device redundancy
// assumptions break.
type RegionalOutage struct {
	Center    geo.Point
	RadiusKm  float64
	StartSlot int
	EndSlot   int
}

// Validate checks the outage window and radius.
func (o *RegionalOutage) Validate() error {
	if o.RadiusKm < 0 {
		return fmt.Errorf("fault: negative outage radius %v", o.RadiusKm)
	}
	if o.StartSlot < 0 || o.EndSlot < o.StartSlot {
		return fmt.Errorf("fault: outage window [%d, %d) invalid", o.StartSlot, o.EndSlot)
	}
	return nil
}

// CapacityDegradation scales down a random Fraction of the fleet's
// capacities during [StartSlot, EndSlot): effective service capacity is
// floor(nominal*ServiceFactor) and cache capacity
// floor(nominal*CacheFactor). Factors of 1 leave the resource intact;
// 0 zeroes it while the hotspot stays "online" (it still aggregates
// demand and appears in the index, unlike an outage).
type CapacityDegradation struct {
	StartSlot     int
	EndSlot       int
	Fraction      float64
	ServiceFactor float64
	CacheFactor   float64
}

// Validate checks the degradation window, fraction, and factors.
func (d *CapacityDegradation) Validate() error {
	if d.StartSlot < 0 || d.EndSlot < d.StartSlot {
		return fmt.Errorf("fault: degradation window [%d, %d) invalid", d.StartSlot, d.EndSlot)
	}
	if d.Fraction < 0 || d.Fraction > 1 {
		return fmt.Errorf("fault: degradation fraction %v outside [0, 1]", d.Fraction)
	}
	if d.ServiceFactor < 0 || d.ServiceFactor > 1 {
		return fmt.Errorf("fault: service factor %v outside [0, 1]", d.ServiceFactor)
	}
	if d.CacheFactor < 0 || d.CacheFactor > 1 {
		return fmt.Errorf("fault: cache factor %v outside [0, 1]", d.CacheFactor)
	}
	return nil
}

// FlashCrowd multiplies demand for the hottest content of a slot
// window: the TopVideos most-requested videos within
// [StartSlot, EndSlot) have each of their requests appear Multiplier
// times in total (duplicates are inserted adjacent to the original, so
// per-slot request order stays deterministic). A viral-video spike on
// top of the trace's organic demand.
type FlashCrowd struct {
	StartSlot  int
	EndSlot    int
	TopVideos  int
	Multiplier int
}

// Validate checks the spike window and magnitude.
func (f *FlashCrowd) Validate() error {
	if f.StartSlot < 0 || f.EndSlot < f.StartSlot {
		return fmt.Errorf("fault: flash-crowd window [%d, %d) invalid", f.StartSlot, f.EndSlot)
	}
	if f.TopVideos < 0 {
		return fmt.Errorf("fault: negative TopVideos %d", f.TopVideos)
	}
	if f.Multiplier < 1 {
		return fmt.Errorf("fault: flash-crowd multiplier %d below 1", f.Multiplier)
	}
	return nil
}

// StaleReports degrades the scheduler's view of the world without
// touching the world itself: the per-slot demand handed to the policy
// is aggregated from the requests of LagSlots slots earlier (clamped to
// slot 0), and each (slot, hotspot) report is independently missing
// with probability DropFraction (the policy sees zero demand there).
// Requests are still served — and metrics accounted — against the true
// demand.
type StaleReports struct {
	LagSlots     int
	DropFraction float64
}

// Validate checks the staleness parameters.
func (s *StaleReports) Validate() error {
	if s.LagSlots < 0 {
		return fmt.Errorf("fault: negative report lag %d", s.LagSlots)
	}
	if s.DropFraction < 0 || s.DropFraction > 1 {
		return fmt.Errorf("fault: drop fraction %v outside [0, 1]", s.DropFraction)
	}
	return nil
}

// Scenario composes any subset of the failure modes. The zero value
// (and nil) injects nothing.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string

	Churn        *MarkovChurn
	Outages      []RegionalOutage
	Degradations []CapacityDegradation
	FlashCrowds  []FlashCrowd
	Staleness    *StaleReports
}

// Validate checks every component of the scenario.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	if s.Churn != nil {
		if err := s.Churn.Validate(); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	for i := range s.Outages {
		if err := s.Outages[i].Validate(); err != nil {
			return fmt.Errorf("outage %d: %w", i, err)
		}
	}
	for i := range s.Degradations {
		if err := s.Degradations[i].Validate(); err != nil {
			return fmt.Errorf("degradation %d: %w", i, err)
		}
	}
	for i := range s.FlashCrowds {
		if err := s.FlashCrowds[i].Validate(); err != nil {
			return fmt.Errorf("flash crowd %d: %w", i, err)
		}
	}
	if s.Staleness != nil {
		if err := s.Staleness.Validate(); err != nil {
			return fmt.Errorf("staleness: %w", err)
		}
	}
	return nil
}

// Empty reports whether the scenario injects anything at all.
func (s *Scenario) Empty() bool {
	return s == nil || (s.Churn == nil && len(s.Outages) == 0 &&
		len(s.Degradations) == 0 && len(s.FlashCrowds) == 0 && s.Staleness == nil)
}

// scaleCapacity is the shared floor(nominal*factor) rule for degraded
// capacities.
func scaleCapacity(nominal int64, factor float64) int64 {
	if factor >= 1 {
		return nominal
	}
	if factor <= 0 {
		return 0
	}
	return int64(math.Floor(float64(nominal) * factor))
}

// windowContains reports whether slot lies in [start, end).
func windowContains(start, end, slot int) bool {
	return slot >= start && slot < end
}

// hotspotsWithin returns the (sorted) hotspot ids within radius of
// center.
func hotspotsWithin(world *trace.World, center geo.Point, radiusKm float64) []int {
	var out []int
	for h := range world.Hotspots {
		if world.Hotspots[h].Location.DistanceTo(center) <= radiusKm {
			out = append(out, h)
		}
	}
	return out
}
