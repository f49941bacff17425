package scheme

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FactoredPredicted schedules on factored forecast demand: per-hotspot
// *total* volume is forecast as a dense time series (diurnal, hence
// predictable), and spread over videos according to the hotspot's
// exponentially-smoothed popularity distribution. This fixes the
// failure mode of direct per-(hotspot, video) forecasting — those
// series are so sparse that EWMA/AR/seasonal methods all collapse (see
// the abl-prediction experiment) — and is how the paper's "popularity
// changes slowly and can be learned" assumption becomes operational.
type FactoredPredicted struct {
	// Inner is the wrapped policy (typically *RBCAer).
	Inner sim.Scheduler

	world  *trace.World
	totals *predict.Forecaster
	shares []map[trace.VideoID]float64
}

var _ sim.Scheduler = (*FactoredPredicted)(nil)

// factoredTotals forecasts the per-hotspot totals: a day-periodic
// seasonal model over hourly slots.
var factoredTotals = predict.Seasonal{Period: 24}

// shareDecay is the exponential-smoothing factor of the per-hotspot
// video-share distribution.
const shareDecay = 0.3

// NewFactoredPredicted wraps inner with factored demand forecasting.
func NewFactoredPredicted(inner sim.Scheduler) *FactoredPredicted {
	return &FactoredPredicted{Inner: inner}
}

// Name implements sim.Scheduler.
func (p *FactoredPredicted) Name() string {
	return fmt.Sprintf("%s+factored(%s)", p.Inner.Name(), factoredTotals.Name())
}

// Schedule implements sim.Scheduler.
func (p *FactoredPredicted) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.Inner == nil {
		return nil, fmt.Errorf("scheme: FactoredPredicted needs an inner policy")
	}
	if p.world != ctx.World {
		totals, err := predict.NewForecaster(factoredTotals, 0)
		if err != nil {
			return nil, fmt.Errorf("scheme: building total forecaster: %w", err)
		}
		p.totals = totals
		p.shares = make([]map[trace.VideoID]float64, len(ctx.World.Hotspots))
		p.world = ctx.World
	}
	m := len(ctx.World.Hotspots)

	// Forecast this slot from past slots; the cold-start slot falls
	// back to the oracle demand.
	predictedTotals := p.totals.Forecast()
	predicted := ctx.Demand
	if len(predictedTotals) > 0 {
		predicted = core.NewDemand(m)
		for h := 0; h < m; h++ {
			total := predictedTotals[h]
			if total <= 0 || len(p.shares[h]) == 0 {
				continue
			}
			spreadDemand(predicted, h, total, p.shares[h])
		}
	}

	// Learn from the true demand for future slots.
	observedTotals := make(map[int]int64, m)
	for h := 0; h < m; h++ {
		observedTotals[h] = ctx.Demand.Totals[h]
		if p.shares[h] == nil {
			p.shares[h] = make(map[trace.VideoID]float64)
		}
		// Exponential smoothing of the share distribution: decay old
		// mass, add this slot's counts.
		for v := range p.shares[h] {
			p.shares[h][v] *= 1 - shareDecay
			if p.shares[h][v] < 1e-3 {
				delete(p.shares[h], v)
			}
		}
		ctx.Demand.Each(h, func(v trace.VideoID, n int64) {
			p.shares[h][v] += shareDecay * float64(n)
		})
	}
	p.totals.Observe(observedTotals)

	innerCtx := *ctx
	innerCtx.Demand = predicted
	return p.Inner.Schedule(&innerCtx)
}

// spreadDemand distributes `total` units over videos proportionally to
// their smoothed shares, largest-remainder style: whole units by floor,
// leftovers to the largest fractional parts.
func spreadDemand(d *core.Demand, h int, total int64, shares map[trace.VideoID]float64) {
	var sum float64
	for _, w := range shares {
		sum += w
	}
	if sum <= 0 {
		return
	}
	type alloc struct {
		v     trace.VideoID
		whole int64
		frac  float64
	}
	allocs := make([]alloc, 0, len(shares))
	var assigned int64
	for v, w := range shares {
		exact := float64(total) * w / sum
		whole := int64(exact)
		allocs = append(allocs, alloc{v: v, whole: whole, frac: exact - float64(whole)})
		assigned += whole
	}
	sort.Slice(allocs, func(a, b int) bool {
		if allocs[a].frac != allocs[b].frac {
			return allocs[a].frac > allocs[b].frac
		}
		return allocs[a].v < allocs[b].v
	})
	leftover := total - assigned
	for i := range allocs {
		n := allocs[i].whole
		if leftover > 0 {
			n++
			leftover--
		}
		if n > 0 {
			d.Add(trace.HotspotID(h), allocs[i].v, n)
		}
	}
}
