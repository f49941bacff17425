package exp

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// resilienceFamily is one failure mode swept over increasing intensity.
type resilienceFamily struct {
	name   string
	title  string
	xlabel string
	// levels are the x-axis intensity values; levels[0] must be the
	// fault-free baseline.
	levels []float64
	// scenario builds the fault scenario for level index li (nil for
	// the baseline).
	scenario func(li int) *fault.Scenario
}

// Resilience sweeps RBCAer and the baselines across five failure modes
// at increasing intensity: Markov session churn, geographically
// correlated regional outages, capacity degradation, flash-crowd
// demand spikes, and stale/partial load reports. Each family yields
// one figure (resilience-<name>) with the per-scheme serving ratio
// over intensity; the notes record the degraded-mode counters so the
// graceful-degradation machinery is visible in the output.
func (r *Runner) Resilience() ([]*Figure, error) {
	cfg := r.evalConfig()
	// Multi-slot replay so windows, sessions, and report lag have room
	// to act; per-slot capacity shrinks with the per-slot volume.
	cfg.Slots = 6
	cfg.NumRequests *= 2
	cfg.ServiceCapacityFrac /= 2
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	center := geo.Point{
		X: (world.Bounds.MinX + world.Bounds.MaxX) / 2,
		Y: (world.Bounds.MinY + world.Bounds.MaxY) / 2,
	}
	diag := math.Hypot(world.Bounds.Width(), world.Bounds.Height())

	families := []resilienceFamily{
		{
			name:   "churn",
			title:  "Markov session churn (recover 0.4/slot)",
			xlabel: "fail probability per slot",
			levels: []float64{0, 0.05, 0.15, 0.3},
			scenario: func(li int) *fault.Scenario {
				if li == 0 {
					return nil
				}
				return &fault.Scenario{
					Name:  "churn",
					Churn: &fault.MarkovChurn{FailPerSlot: []float64{0, 0.05, 0.15, 0.3}[li], RecoverPerSlot: 0.4},
				}
			},
		},
		{
			name:   "outage",
			title:  "Correlated regional outage (slots 2-3)",
			xlabel: "outage radius (fraction of world diagonal)",
			levels: []float64{0, 0.1, 0.25, 0.5},
			scenario: func(li int) *fault.Scenario {
				if li == 0 {
					return nil
				}
				return &fault.Scenario{
					Name: "outage",
					Outages: []fault.RegionalOutage{
						{Center: center, RadiusKm: []float64{0, 0.1, 0.25, 0.5}[li] * diag, StartSlot: 2, EndSlot: 4},
					},
				}
			},
		},
		{
			name:   "degrade",
			title:  "Capacity degradation (60% of fleet, slots 1-4)",
			xlabel: "remaining capacity factor",
			levels: []float64{1, 0.7, 0.4, 0.2},
			scenario: func(li int) *fault.Scenario {
				if li == 0 {
					return nil
				}
				f := []float64{1, 0.7, 0.4, 0.2}[li]
				return &fault.Scenario{
					Name: "degrade",
					Degradations: []fault.CapacityDegradation{
						{StartSlot: 1, EndSlot: 5, Fraction: 0.6, ServiceFactor: f, CacheFactor: f},
					},
				}
			},
		},
		{
			name:   "flash",
			title:  "Flash crowds on the 5 hottest videos (slots 1-4)",
			xlabel: "demand multiplier",
			levels: []float64{1, 2, 4, 8},
			scenario: func(li int) *fault.Scenario {
				if li == 0 {
					return nil
				}
				return &fault.Scenario{
					Name: "flash",
					FlashCrowds: []fault.FlashCrowd{
						{StartSlot: 1, EndSlot: 5, TopVideos: 5, Multiplier: []int{1, 2, 4, 8}[li]},
					},
				}
			},
		},
		{
			name:   "stale",
			title:  "Stale and partial load reports",
			xlabel: "report lag (slots; drop fraction = 0.15 x lag)",
			levels: []float64{0, 1, 2, 3},
			scenario: func(li int) *fault.Scenario {
				if li == 0 {
					return nil
				}
				return &fault.Scenario{
					Name:      "stale",
					Staleness: &fault.StaleReports{LagSlots: li, DropFraction: 0.15 * float64(li)},
				}
			},
		},
	}

	policies := []string{"rbcaer", "nearest", "random"}

	var figs []*Figure
	for _, fam := range families {
		fig := &Figure{
			ID:     "resilience-" + fam.name,
			Title:  "Serving ratio under failures: " + fam.title,
			XLabel: fam.xlabel,
			YLabel: "serving ratio",
		}
		names := make([]string, 0, len(policies))
		serving := make(map[string][]float64)
		var worst *sim.Metrics // RBCAer at the highest intensity
		for li := range fam.levels {
			opts := r.simOpts()
			opts.Faults = fam.scenario(li)
			for _, pol := range policies {
				m, err := r.runScheme(pol, world, tr, opts)
				if err != nil {
					return nil, fmt.Errorf("exp: resilience-%s %s at level %v: %w",
						fam.name, pol, fam.levels[li], err)
				}
				if _, ok := serving[m.Scheme]; !ok {
					names = append(names, m.Scheme)
				}
				serving[m.Scheme] = append(serving[m.Scheme], m.HotspotServingRatio)
				if m.Scheme == "RBCAer" && li == len(fam.levels)-1 {
					worst = m
				}
			}
		}
		for _, name := range names {
			fig.AddSeries(name, fam.levels, serving[name])
		}
		if rb := serving["RBCAer"]; len(rb) == len(fam.levels) && rb[0] > 0 {
			last := len(rb) - 1
			fig.Note("RBCAer keeps %.0f%% of its fault-free serving ratio at the highest intensity",
				100*rb[last]/rb[0])
		}
		if worst != nil {
			// Every offline pair has exactly one cause, a fault, so the
			// fault-attributed count is the offline total.
			fig.Note("RBCAer at max intensity: %d degraded rounds, %d stranded requests, %d CDN-fallback serves, %d offline hotspot-slots (%d fault-attributed), %d flash-injected requests",
				worst.DegradedRounds, worst.StrandedRequests, worst.FallbackServedByCDN,
				worst.OfflineHotspotSlots, worst.OfflineHotspotSlots, worst.FlashInjectedRequests)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}
