package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/region"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExtHierarchical compares flat RBCAer against the hierarchical
// cross-region mode (paper Sec. VI / reference [28]) as the deployment
// grows, reporting scheduling time and serving ratio. The hierarchical
// mode's cross-region round balances beyond flat RBCAer's default
// θ2 = 1.5 km, so flat RBCAer with θ2 widened to 3 and 6 km runs
// alongside as the control: what the longer reach buys without the
// decomposition.
func (r *Runner) ExtHierarchical() (*Figure, error) {
	base := r.evalConfig()
	fig := &Figure{
		ID:     "ext-hier",
		Title:  "Flat RBCAer vs hierarchical cross-region RBCAer (scalability)",
		XLabel: "hotspots",
		YLabel: "seconds / ratio",
	}
	flatTheta2 := func(km float64) func() sim.Scheduler {
		return func() sim.Scheduler {
			p := r.coreParams()
			p.Theta2 = km
			return scheme.NewRBCAer(p)
		}
	}
	variants := []struct {
		name   string
		policy func() sim.Scheduler
	}{
		{"flat", flatTheta2(core.DefaultParams().Theta2)},
		{"flat(theta2=3)", flatTheta2(3)},
		{"flat(theta2=6)", flatTheta2(6)},
		{"hier", func() sim.Scheduler { return scheme.NewHierarchical(3.0) }},
	}
	var xs []float64
	times := make([][]float64, len(variants))
	serving := make([][]float64, len(variants))
	last := make([]*sim.Metrics, len(variants)) // at the largest fleet
	for _, mult := range []int{1, 2, 4} {
		cfg := base
		cfg.NumHotspots = base.NumHotspots * mult
		cfg.NumUsers = base.NumUsers * mult
		cfg.NumRequests = base.NumRequests * mult
		// Grow the area with the fleet so density stays constant.
		grow := math.Sqrt(float64(mult))
		cfg.Bounds.MaxX = cfg.Bounds.MinX + base.Bounds.Width()*grow
		cfg.Bounds.MaxY = cfg.Bounds.MinY + base.Bounds.Height()*grow
		cfg.NumRegions = base.NumRegions * mult
		world, tr, err := trace.Generate(cfg)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(cfg.NumHotspots))
		for i, v := range variants {
			m, err := sim.Run(world, tr, v.policy(), r.simOpts())
			if err != nil {
				return nil, fmt.Errorf("exp: ext-hier %s at %dx: %w", v.name, mult, err)
			}
			times[i] = append(times[i], m.SchedulingTime.Seconds())
			serving[i] = append(serving[i], m.HotspotServingRatio)
			last[i] = m
		}
	}
	for i, v := range variants {
		fig.AddSeries(v.name+"-time(s)", xs, times[i])
	}
	for i, v := range variants {
		fig.AddSeries(v.name+"-serving", xs, serving[i])
	}
	for i, v := range variants {
		m := last[i]
		fig.Note("at %d hotspots %s schedules in %.2fs: serving %.3f, distance %.2fkm, replication %.2fx",
			len(m.PerHotspotLoad), v.name, m.SchedulingTime.Seconds(),
			m.HotspotServingRatio, m.AvgAccessDistanceKm, m.ReplicationCost)
	}
	return fig, nil
}

// ExtChurn measures robustness to crowdsourced-device churn: serving
// ratio of the schemes as hotspots go offline per slot.
func (r *Runner) ExtChurn() (*Figure, error) {
	world, tr, err := r.evalData()
	if err != nil {
		return nil, err
	}
	churns := []float64{0, 0.05, 0.1, 0.2, 0.4}
	fig := &Figure{
		ID:     "ext-churn",
		Title:  "Hotspot serving ratio under device churn",
		XLabel: "churn",
		YLabel: "serving ratio",
	}
	names := make([]string, 0, 3)
	series := make(map[string][]float64)
	for _, churn := range churns {
		for _, policy := range r.evalPolicies() {
			opts := r.simOpts()
			opts.Faults = &fault.Scenario{Churn: &fault.MarkovChurn{FailPerSlot: churn, RecoverPerSlot: 1 - churn}}
			m, err := sim.Run(world, tr, policy, opts)
			if err != nil {
				return nil, fmt.Errorf("exp: ext-churn %s at %v: %w", policy.Name(), churn, err)
			}
			if _, ok := series[m.Scheme]; !ok {
				names = append(names, m.Scheme)
			}
			series[m.Scheme] = append(series[m.Scheme], m.HotspotServingRatio)
		}
	}
	for _, name := range names {
		fig.AddSeries(name, churns, series[name])
	}
	if rb := series["RBCAer"]; len(rb) == len(churns) && rb[0] > 0 {
		fig.Note("RBCAer keeps %.0f%% of its churn-free serving ratio at 20%% churn",
			100*rb[3]/rb[0])
	}
	return fig, nil
}

// ExtShard sweeps the shard size of the sharded scheduler (DESIGN.md
// §14) over the evaluation workload, measuring the communication-cost
// vs load-balancing tradeoff: smaller cells mean more shards and more
// intra-shard parallelism, but more residual overload must cross shard
// boundaries in the reconciliation pass (the explicit communication
// cost), and boundary moves are coarser than a global round's.
func (r *Runner) ExtShard() (*Figure, error) {
	world, tr, err := r.evalData()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ext-shard",
		Title:  "Sharded RBCAer: shard size vs boundary communication and balance",
		XLabel: "shards",
		YLabel: "value",
	}
	// Cell sizes from "one shard" (cell covers the whole region) down
	// to fine-grained sharding. Duplicate shard counts (tiny scaled
	// worlds collapse several sizes onto one grid) are skipped.
	cells := []float64{1000, 8, 6, 4, 3, 2}
	seen := make(map[int]bool)
	var xs, boundary, serving, distance, schedT []float64
	for _, cell := range cells {
		part, err := region.GridPartition(world, cell)
		if err != nil {
			return nil, fmt.Errorf("exp: ext-shard partition at %.1fkm: %w", cell, err)
		}
		n := part.NumRegions()
		if seen[n] {
			continue
		}
		seen[n] = true
		// A fresh registry per configuration isolates the boundary
		// counters; the runner's shared registry still receives the
		// slot-level sim counters via simOpts.
		reg := obs.NewRegistry()
		m, err := sim.Run(world, tr, scheme.NewSharded(shard.Params{
			CellKm:  cell,
			Workers: r.Workers,
			Obs:     reg,
		}), r.simOpts())
		if err != nil {
			return nil, fmt.Errorf("exp: ext-shard at %.1fkm (%d shards): %w", cell, n, err)
		}
		moved := reg.Counter("shard.boundary.moved_flow").Value()
		xs = append(xs, float64(n))
		boundary = append(boundary, float64(moved))
		serving = append(serving, m.HotspotServingRatio)
		distance = append(distance, m.AvgAccessDistanceKm)
		schedT = append(schedT, m.SchedulingTime.Seconds())
		fig.Note("%d shards (cell %.0fkm): boundary flow %d, serving %.3f, distance %.2fkm, scheduling %v",
			n, cell, moved, m.HotspotServingRatio, m.AvgAccessDistanceKm, m.SchedulingTime)
	}
	fig.AddSeries("boundary-flow", xs, boundary)
	fig.AddSeries("serving-ratio", xs, serving)
	fig.AddSeries("avg-distance(km)", xs, distance)
	fig.AddSeries("scheduling-time(s)", xs, schedT)
	return fig, nil
}

// ablVariant is one parameter mutation of an RBCAer ablation.
type ablVariant struct {
	name string
	mut  func(*core.Params)
}

// ablation is the table row of an RBCAer parameter ablation.
func ablation(id, what string, variants ...ablVariant) experiment {
	return experiment{id: id, run: func(r *Runner) ([]*Figure, error) {
		return r.ablate(id, what, variants)
	}}
}

// ablate runs RBCAer variants over the evaluation workload and reports
// the paper's four metrics per variant.
func (r *Runner) ablate(id, what string, variants []ablVariant) ([]*Figure, error) {
	world, tr, err := r.evalData()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("RBCAer ablation: %s", what),
		XLabel: "metric",
		YLabel: "value",
	}
	for _, v := range variants {
		params := r.coreParams()
		v.mut(&params)
		m, err := sim.Run(world, tr, scheme.NewRBCAer(params), r.simOpts())
		if err != nil {
			return nil, fmt.Errorf("exp: %s variant %s: %w", id, v.name, err)
		}
		fig.AddSeries(v.name,
			[]float64{0, 1, 2, 3},
			[]float64{m.HotspotServingRatio, m.AvgAccessDistanceKm, m.ReplicationCost, m.CDNServerLoad})
		fig.Note("%s: serving %.3f, distance %.2fkm, replication %.2fx, CDN load %.3f (scheduling %v)",
			v.name, m.HotspotServingRatio, m.AvgAccessDistanceKm, m.ReplicationCost,
			m.CDNServerLoad, m.SchedulingTime)
	}
	fig.Note("metric axis: 0 = serving ratio, 1 = avg distance (km), 2 = replication cost, 3 = CDN load")
	return []*Figure{fig}, nil
}

// AblatePrediction compares oracle per-slot demand against factored
// learned demand (seasonal per-hotspot totals spread over smoothed video
// shares) over two days of hourly rounds. Direct per-(hotspot, video)
// forecasting is not a row: factored beat all four direct forecasters
// on every metric (EXPERIMENTS.md records the table).
func (r *Runner) AblatePrediction() (*Figure, error) {
	cfg := r.evalConfig()
	// Two diurnal cycles (so the seasonal forecast has a day of
	// history), with enough volume that each hotspot sees a few
	// hundred requests per slot — the granularity the paper's single
	// scheduling round operates at — and per-slot capacity pressure
	// matching the Sec. V regime.
	cfg.Slots = 48
	cfg.NumRequests *= 28
	cfg.NumUsers *= 2
	cfg.ServiceCapacityFrac *= 0.6
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// Only the oracle is per-slot independent; every predictor learns
	// from earlier slots and must observe them in order.
	variants := []struct {
		name        string
		independent bool
		policy      func() sim.Scheduler
	}{
		{"oracle", true, func() sim.Scheduler { return scheme.NewRBCAer(r.coreParams()) }},
		{"factored(seasonal)", false, func() sim.Scheduler { return scheme.NewFactoredPredicted(scheme.NewRBCAer(r.coreParams())) }},
		{"factored+overprov(4x)", false, func() sim.Scheduler {
			return scheme.NewFactoredPredicted(scheme.NewRBCAer(overprovisionParams(r.coreParams(), 4)))
		}},
	}
	fig := &Figure{
		ID:     "abl-prediction",
		Title:  "RBCAer on oracle vs learned demand (48 hourly slots, 2 days)",
		XLabel: "metric",
		YLabel: "value",
	}
	for _, v := range variants {
		m, err := scheme.Factory{New: v.policy, SlotsIndependent: v.independent}.Run(world, tr, r.Workers, r.simOpts())
		if err != nil {
			return nil, fmt.Errorf("exp: abl-prediction %s: %w", v.name, err)
		}
		fig.AddSeries(v.name,
			[]float64{0, 1, 2},
			[]float64{m.HotspotServingRatio, m.ReplicationCost, m.CDNServerLoad})
		fig.Note("%s: serving %.3f, replication %.2fx, CDN load %.3f",
			v.name, m.HotspotServingRatio, m.ReplicationCost, m.CDNServerLoad)
	}
	fig.Note("metric axis: 0 = serving ratio, 1 = replication cost, 2 = CDN load")
	return fig, nil
}

// overprovisionParams returns the base parameters with the cache-fill
// budget scaled by mult.
func overprovisionParams(base core.Params, mult float64) core.Params {
	base.FillOverprovision = mult
	return base
}
