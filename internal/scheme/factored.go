package scheme

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FactoredPredicted schedules on factored forecast demand: per-hotspot
// *total* volume is forecast as a dense time series (diurnal, hence
// predictable), and spread over videos according to the hotspot's
// exponentially-smoothed popularity distribution. This fixes the
// failure mode of direct per-(hotspot, video) forecasting — those
// series are so sparse that EWMA/AR/seasonal methods all collapse (the
// recorded abl-prediction finding in EXPERIMENTS.md) — and is how the
// paper's "popularity changes slowly and can be learned" assumption
// becomes operational.
type FactoredPredicted struct {
	// Inner is the wrapped policy (typically *RBCAer).
	Inner sim.Scheduler

	world *trace.World
	// totals holds the last seasonPeriod slots' per-hotspot totals,
	// oldest first.
	totals [][]int64
	shares []map[trace.VideoID]float64
}

var _ sim.Scheduler = (*FactoredPredicted)(nil)

// seasonPeriod is the season of the per-hotspot totals' seasonal-naive
// forecast: a day of hourly slots.
const seasonPeriod = 24

// shareDecay is the exponential-smoothing factor of the per-hotspot
// video-share distribution.
const shareDecay = 0.3

// NewFactoredPredicted wraps inner with factored demand forecasting.
func NewFactoredPredicted(inner sim.Scheduler) *FactoredPredicted {
	return &FactoredPredicted{Inner: inner}
}

// Name implements sim.Scheduler.
func (p *FactoredPredicted) Name() string {
	return fmt.Sprintf("%s+factored(seasonal(%d))", p.Inner.Name(), seasonPeriod)
}

// forecastTotals predicts the next slot's per-hotspot totals: the
// totals seasonPeriod slots back once that many are held, the last
// slot's before, and nil (the oracle) on the cold-start slot.
func (p *FactoredPredicted) forecastTotals() []int64 {
	switch n := len(p.totals); {
	case n == 0:
		return nil
	case n < seasonPeriod:
		return p.totals[n-1]
	default:
		return p.totals[n-seasonPeriod]
	}
}

// observeTotals records one slot's per-hotspot totals, keeping the last
// seasonPeriod slots.
func (p *FactoredPredicted) observeTotals(totals []int64) {
	p.totals = append(p.totals, append([]int64(nil), totals...))
	if len(p.totals) > seasonPeriod {
		p.totals = p.totals[1:]
	}
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
		p.totals = nil
		p.shares = make([]map[trace.VideoID]float64, len(ctx.World.Hotspots))
		p.world = ctx.World
	}
	m := len(ctx.World.Hotspots)

	// Forecast this slot from past slots; the cold-start slot falls
	// back to the oracle demand.
	predictedTotals := p.forecastTotals()
	predicted := ctx.Demand
	if predictedTotals != nil {
		predicted = core.NewDemand(m)
		for h := 0; h < m; h++ {
			total := predictedTotals[h]
			if total <= 0 || len(p.shares[h]) == 0 {
				continue
			}
			spreadDemand(predicted, h, total, p.shares[h])
		}
		predicted.Fold()
	}

	// Learn from the true demand for future slots.
	p.observeTotals(ctx.Demand.Totals[:m])
	for h := 0; h < m; h++ {
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
