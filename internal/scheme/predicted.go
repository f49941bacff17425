package scheme

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Predicted wraps a policy so it schedules on forecast demand instead
// of the oracle per-slot demand, modelling the paper's assumption that
// popularity "can be learned through some popularity prediction
// algorithm". Each slot, the wrapper feeds the inner policy the
// forecaster's per-(hotspot, video) prediction, then lets the simulator
// serve the real requests against the resulting placement and routing.
type Predicted struct {
	// Inner is the wrapped policy (typically *RBCAer).
	Inner sim.Scheduler
	// Method is the forecasting method; nil selects predict.EWMA{0.5}.
	Method predict.Method

	fc    *predict.Forecaster
	world *trace.World
}

var _ sim.Scheduler = (*Predicted)(nil)

// Name implements sim.Scheduler.
func (p *Predicted) Name() string {
	method := p.Method
	if method == nil {
		method = predict.EWMA{Alpha: 0.5}
	}
	return fmt.Sprintf("%s+%s", p.Inner.Name(), method.Name())
}

// Schedule implements sim.Scheduler.
func (p *Predicted) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.Inner == nil {
		return nil, fmt.Errorf("scheme: Predicted needs an inner policy")
	}
	if p.fc == nil || p.world != ctx.World {
		method := p.Method
		if method == nil {
			method = predict.EWMA{Alpha: 0.5}
		}
		fc, err := predict.NewForecaster(method, 0)
		if err != nil {
			return nil, fmt.Errorf("scheme: building forecaster: %w", err)
		}
		p.fc = fc
		p.world = ctx.World
	}

	numVideos := ctx.World.NumVideos
	key := func(h int, v trace.VideoID) int {
		return h*numVideos + int(v)
	}

	// Forecast this slot from past slots, falling back to the oracle
	// demand on the cold-start slot (nothing observed yet).
	forecast := p.fc.Forecast()
	predicted := ctx.Demand
	if len(forecast) > 0 {
		predicted = core.NewDemand(len(ctx.World.Hotspots))
		for k, n := range forecast {
			if n <= 0 {
				continue
			}
			predicted.Add(trace.HotspotID(k/numVideos), trace.VideoID(k%numVideos), n)
		}
	}

	// Record the true demand for future forecasts.
	observed := make(map[int]int64)
	for h := 0; h < ctx.Demand.NumHotspots(); h++ {
		ctx.Demand.Each(h, func(v trace.VideoID, n int64) {
			observed[key(h, v)] = n
		})
	}
	p.fc.Observe(observed)

	innerCtx := *ctx
	innerCtx.Demand = predicted
	asg, err := p.Inner.Schedule(&innerCtx)
	if err != nil {
		return nil, err
	}
	// The inner policy may have routed against predicted volumes; the
	// simulator enforces real feasibility, so the assignment is used
	// as-is.
	return asg, nil
}
