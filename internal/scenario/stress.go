package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Range is a closed float interval [Lo, Hi] a stress parameter is drawn
// from. Lo == Hi pins the parameter.
type Range struct{ Lo, Hi float64 }

// IntRange is a closed integer interval [Lo, Hi].
type IntRange struct{ Lo, Hi int }

// sample draws uniformly from the range.
func (r Range) sample(rng *rand.Rand) float64 {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

// sample draws uniformly (inclusive) from the range.
func (r IntRange) sample(rng *rand.Rand) int {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + rng.Intn(r.Hi-r.Lo+1)
}

// Stress is the seeded stress-generation section: instead of spelling
// out each fault, the scenario gives weighted fleet templates and
// per-family parameter ranges, and the generator expands them into
// concrete fault.Scenario entries from independent stats.SplitRand
// streams. Equal seeds yield byte-identical expansions, so stress
// scenarios are exactly as reproducible as explicit ones.
type Stress struct {
	// Seed drives every stress stream (default: the world seed).
	Seed int64
	// SeedSet records whether the file pinned the seed.
	SeedSet bool

	// Fleet reshapes the generated world's capacities: each hotspot
	// draws a template by weight and takes its capacity fractions.
	Fleet []FleetTemplate

	Churn        *ChurnGen
	Outages      *OutageGen
	FlashCrowds  *FlashGen
	Degradations *DegradeGen
	Staleness    *StaleGen
}

// FleetTemplate is one weighted hotspot class.
type FleetTemplate struct {
	Name   string
	Weight float64
	// ServiceFrac sets service capacity to this fraction of the video
	// set (0 keeps the generated capacity).
	ServiceFrac float64
	// CacheFrac likewise for cache capacity.
	CacheFrac float64
}

// ChurnGen draws Markov churn parameters.
type ChurnGen struct {
	Fail    Range
	Recover Range
}

// OutageGen draws Count regional outages: centers uniform over the
// world bounds, radii/windows from the ranges.
type OutageGen struct {
	Count    int
	RadiusKm Range
	Start    IntRange
	Duration IntRange
}

// FlashGen draws Count flash crowds.
type FlashGen struct {
	Count      int
	TopVideos  IntRange
	Multiplier IntRange
	Start      IntRange
	Duration   IntRange
}

// DegradeGen draws Count capacity degradations.
type DegradeGen struct {
	Count         int
	Fraction      Range
	ServiceFactor Range
	CacheFactor   Range
	Start         IntRange
	Duration      IntRange
}

// StaleGen draws stale-report parameters.
type StaleGen struct {
	Lag          IntRange
	DropFraction Range
}

func (doc *Doc) decodeStress(n *node) error {
	d, err := newDec(n, "stress")
	if err != nil {
		return err
	}
	st := &Stress{}
	if d.n.child("seed") != nil {
		st.Seed, st.SeedSet = d.int64Of("seed", 0), true
	}
	if f := d.get("fleet"); f != nil {
		if err := st.decodeFleet(f); err != nil {
			return err
		}
	}
	if c := d.get("churn"); c != nil {
		cd, err := newDec(c, "stress.churn")
		if err != nil {
			return err
		}
		st.Churn = &ChurnGen{
			Fail:    cd.floatRange("fail", Range{}),
			Recover: cd.floatRange("recover", Range{}),
		}
		if err := cd.finish(); err != nil {
			return err
		}
	}
	if c := d.get("outages"); c != nil {
		od, err := newDec(c, "stress.outages")
		if err != nil {
			return err
		}
		st.Outages = &OutageGen{
			Count:    od.integer("count", 1),
			RadiusKm: od.floatRange("radius_km", Range{}),
			Start:    od.intRange("start", IntRange{}),
			Duration: od.intRange("duration", IntRange{Lo: 1, Hi: 1}),
		}
		if err := od.finish(); err != nil {
			return err
		}
	}
	if c := d.get("flash_crowds"); c != nil {
		fd, err := newDec(c, "stress.flash_crowds")
		if err != nil {
			return err
		}
		st.FlashCrowds = &FlashGen{
			Count:      fd.integer("count", 1),
			TopVideos:  fd.intRange("top_videos", IntRange{Lo: 1, Hi: 1}),
			Multiplier: fd.intRange("multiplier", IntRange{Lo: 2, Hi: 2}),
			Start:      fd.intRange("start", IntRange{}),
			Duration:   fd.intRange("duration", IntRange{Lo: 1, Hi: 1}),
		}
		if err := fd.finish(); err != nil {
			return err
		}
	}
	if c := d.get("degradations"); c != nil {
		dd, err := newDec(c, "stress.degradations")
		if err != nil {
			return err
		}
		st.Degradations = &DegradeGen{
			Count:         dd.integer("count", 1),
			Fraction:      dd.floatRange("fraction", Range{Lo: 1, Hi: 1}),
			ServiceFactor: dd.floatRange("service_factor", Range{Lo: 1, Hi: 1}),
			CacheFactor:   dd.floatRange("cache_factor", Range{Lo: 1, Hi: 1}),
			Start:         dd.intRange("start", IntRange{}),
			Duration:      dd.intRange("duration", IntRange{Lo: 1, Hi: 1}),
		}
		if err := dd.finish(); err != nil {
			return err
		}
	}
	if c := d.get("stale_reports"); c != nil {
		sd, err := newDec(c, "stress.stale_reports")
		if err != nil {
			return err
		}
		st.Staleness = &StaleGen{
			Lag:          sd.intRange("lag", IntRange{}),
			DropFraction: sd.floatRange("drop_fraction", Range{}),
		}
		if err := sd.finish(); err != nil {
			return err
		}
	}
	if err := d.finish(); err != nil {
		return err
	}
	doc.Stress = st
	return nil
}

func (st *Stress) decodeFleet(n *node) error {
	if n.kind != seqNode {
		return fmt.Errorf("scenario: line %d: stress.fleet must be a sequence of templates", n.line)
	}
	for i, item := range n.items {
		ctx := fmt.Sprintf("stress.fleet[%d]", i)
		d, err := newDec(item, ctx)
		if err != nil {
			return err
		}
		t := FleetTemplate{
			Name:        d.str("name", fmt.Sprintf("template-%d", i)),
			Weight:      d.float("weight", 0),
			ServiceFrac: d.float("service_frac", 0),
			CacheFrac:   d.float("cache_frac", 0),
		}
		if t.Weight <= 0 {
			d.fail("line %d: %s: weight must be positive", item.line, ctx)
		}
		if t.ServiceFrac < 0 || t.CacheFrac < 0 {
			d.fail("line %d: %s: capacity fractions must be non-negative", item.line, ctx)
		}
		if err := d.finish(); err != nil {
			return err
		}
		st.Fleet = append(st.Fleet, t)
	}
	if len(st.Fleet) == 0 {
		return fmt.Errorf("scenario: line %d: stress.fleet must not be empty", n.line)
	}
	return nil
}

// applyFleet reshapes the world's hotspot capacities from the weighted
// templates: one draw per hotspot, in hotspot order, from the
// "scenario/fleet" stream of the stress seed — equal seeds reshape
// identically.
func (st *Stress) applyFleet(world *trace.World, seed int64) {
	if len(st.Fleet) == 0 {
		return
	}
	var total float64
	for _, t := range st.Fleet {
		total += t.Weight
	}
	rng := stats.SplitRand(seed, "scenario/fleet")
	for h := range world.Hotspots {
		r := rng.Float64() * total
		pick := st.Fleet[len(st.Fleet)-1]
		for _, t := range st.Fleet {
			if r < t.Weight {
				pick = t
				break
			}
			r -= t.Weight
		}
		if pick.ServiceFrac > 0 {
			world.Hotspots[h].ServiceCapacity = int64(float64(world.NumVideos)*pick.ServiceFrac + 0.5)
		}
		if pick.CacheFrac > 0 {
			world.Hotspots[h].CacheCapacity = int(float64(world.NumVideos)*pick.CacheFrac + 0.5)
		}
	}
}

// expand draws the stress section's concrete fault entries and appends
// them to sc. Every family uses its own SplitRand stream with a fixed
// draw order, so equal (seed, world, slots) inputs yield byte-identical
// fault.Scenarios regardless of which other families are configured.
// It returns the number of generated entries.
func (st *Stress) expand(sc *fault.Scenario, world *trace.World, slots int, seed int64) int {
	n := 0
	if st.Churn != nil {
		rng := stats.SplitRand(seed, "scenario/stress/churn")
		sc.Churn = &fault.MarkovChurn{
			FailPerSlot:    st.Churn.Fail.sample(rng),
			RecoverPerSlot: st.Churn.Recover.sample(rng),
		}
		n++
	}
	if st.Outages != nil {
		rng := stats.SplitRand(seed, "scenario/stress/outage")
		for i := 0; i < st.Outages.Count; i++ {
			center := geo.Point{
				X: world.Bounds.MinX + rng.Float64()*world.Bounds.Width(),
				Y: world.Bounds.MinY + rng.Float64()*world.Bounds.Height(),
			}
			start := st.Outages.Start.sample(rng)
			sc.Outages = append(sc.Outages, fault.RegionalOutage{
				Center:    center,
				RadiusKm:  st.Outages.RadiusKm.sample(rng),
				StartSlot: start,
				EndSlot:   clampEnd(start+st.Outages.Duration.sample(rng), slots),
			})
			n++
		}
	}
	if st.Degradations != nil {
		rng := stats.SplitRand(seed, "scenario/stress/degrade")
		for i := 0; i < st.Degradations.Count; i++ {
			start := st.Degradations.Start.sample(rng)
			sc.Degradations = append(sc.Degradations, fault.CapacityDegradation{
				StartSlot:     start,
				EndSlot:       clampEnd(start+st.Degradations.Duration.sample(rng), slots),
				Fraction:      st.Degradations.Fraction.sample(rng),
				ServiceFactor: st.Degradations.ServiceFactor.sample(rng),
				CacheFactor:   st.Degradations.CacheFactor.sample(rng),
			})
			n++
		}
	}
	if st.FlashCrowds != nil {
		rng := stats.SplitRand(seed, "scenario/stress/flash")
		for i := 0; i < st.FlashCrowds.Count; i++ {
			start := st.FlashCrowds.Start.sample(rng)
			sc.FlashCrowds = append(sc.FlashCrowds, fault.FlashCrowd{
				StartSlot:  start,
				EndSlot:    clampEnd(start+st.FlashCrowds.Duration.sample(rng), slots),
				TopVideos:  st.FlashCrowds.TopVideos.sample(rng),
				Multiplier: st.FlashCrowds.Multiplier.sample(rng),
			})
			n++
		}
	}
	if st.Staleness != nil {
		rng := stats.SplitRand(seed, "scenario/stress/stale")
		sc.Staleness = &fault.StaleReports{
			LagSlots:     st.Staleness.Lag.sample(rng),
			DropFraction: st.Staleness.DropFraction.sample(rng),
		}
		n++
	}
	return n
}

// clampEnd bounds a generated window end to the run's slot count (the
// fault compiler clamps too; doing it here keeps reports honest about
// what was injected).
func clampEnd(end, slots int) int {
	if end > slots {
		return slots
	}
	return end
}
