package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
)

// cdfPointsPerSeries is how many points each CDF series is summarised
// to when rendered.
const cdfPointsPerSeries = 41

// maxCorrelationPairs caps how many nearby hotspot pairs the
// correlation and similarity analyses evaluate; beyond the cap a
// deterministic subsample is used.
const maxCorrelationPairs = 200000

// Fig2 reproduces the workload-distribution measurement (paper Fig. 2
// plus the Sec. II-A replication-cost observations) on the
// measurement-scale world.
func (r *Runner) Fig2() (*Figure, error) {
	world, tr, err := r.measureData()
	if err != nil {
		return nil, err
	}
	return WorkloadDistribution(world, tr, r.Seed)
}

// WorkloadDistribution computes the CDF of per-hotspot workload when
// requests are mapped to their nearest hotspot versus randomly within
// 1 km and 5 km (paper Fig. 2), with the Sec. II-A replication-cost
// comparison as notes.
func WorkloadDistribution(world *trace.World, tr *trace.Trace, seed int64) (*Figure, error) {
	index, err := world.Index()
	if err != nil {
		return nil, err
	}
	m := len(world.Hotspots)

	// Nearest hotspot per request, then per-hotspot neighbour lists for
	// the random mappings (requests are redirected from their
	// aggregation hotspot, as in the paper's formulation).
	nearest := make([]int, len(tr.Requests))
	for i, req := range tr.Requests {
		h, _, ok := index.Nearest(req.Location)
		if !ok {
			return nil, fmt.Errorf("exp: empty hotspot index")
		}
		nearest[i] = h
	}
	neighborList := func(radius float64) [][]int {
		out := make([][]int, m)
		for h := 0; h < m; h++ {
			nbrs := index.Within(world.Hotspots[h].Location, radius)
			ids := make([]int, 0, len(nbrs))
			for _, nb := range nbrs {
				ids = append(ids, nb.ID)
			}
			if len(ids) == 0 {
				ids = append(ids, h)
			}
			out[h] = ids
		}
		return out
	}

	fig := &Figure{
		ID:     "fig2",
		Title:  "Workload distribution of content hotspots",
		XLabel: "workload",
		YLabel: "CDF",
	}

	type mapping struct {
		name      string
		neighbors [][]int // nil means nearest
	}
	mappings := []mapping{
		{name: "Nearest"},
		{name: "Random(1km)", neighbors: neighborList(1.0)},
		{name: "Random(5km)", neighbors: neighborList(5.0)},
	}

	rng := stats.SplitRand(seed, "fig2-random")
	var nearestRepl int64
	for _, mp := range mappings {
		loads := make([]float64, m)
		distinct := make([]map[trace.VideoID]struct{}, m)
		for i := range distinct {
			distinct[i] = make(map[trace.VideoID]struct{})
		}
		for i, req := range tr.Requests {
			h := nearest[i]
			if mp.neighbors != nil {
				cands := mp.neighbors[h]
				h = cands[rng.Intn(len(cands))]
			}
			loads[h]++
			distinct[h][req.Video] = struct{}{}
		}
		var repl int64
		for _, dv := range distinct {
			repl += int64(len(dv))
		}
		ecdf, err := stats.NewECDF(loads)
		if err != nil {
			return nil, err
		}
		addCDF(fig, mp.name, ecdf)
		switch mp.name {
		case "Nearest":
			nearestRepl = repl
			med := ecdf.Quantile(0.5)
			p99 := ecdf.Quantile(0.99)
			ratio := math.Inf(1)
			if med > 0 {
				ratio = p99 / med
			}
			fig.Note("Nearest: median workload %.0f, 99th percentile %.0f (%.1fx median; paper reports 9x)",
				med, p99, ratio)
			if gini, err := stats.Gini(loads); err == nil {
				fig.Note("Nearest: workload Gini coefficient %.2f", gini)
			}
			// Verify the popularity skew the trace was generated with.
			videoCounts := make(map[trace.VideoID]float64)
			for _, req := range tr.Requests {
				videoCounts[req.Video]++
			}
			counts := make([]float64, 0, len(videoCounts))
			for _, c := range videoCounts {
				counts = append(counts, c)
			}
			if fit, err := stats.FitZipf(counts); err == nil {
				fig.Note("global video popularity fits Zipf alpha=%.2f (R^2=%.2f)", fit.Alpha, fit.R2)
			}
		default:
			extra := 100 * (float64(repl)/float64(nearestRepl) - 1)
			fig.Note("%s: content replication cost %+.1f%% vs Nearest (paper: +10%% at 1km, +23%% at 5km)",
				mp.name, extra)
		}
	}
	return fig, nil
}

// Fig3a reproduces the workload-correlation measurement (paper
// Fig. 3a) on the measurement-scale world.
func (r *Runner) Fig3a() (*Figure, error) {
	world, tr, err := r.measureData()
	if err != nil {
		return nil, err
	}
	return WorkloadCorrelation(world, tr, r.Seed)
}

// WorkloadCorrelation computes the CDF of Spearman correlation of
// per-slot workloads between hotspot pairs closer than 5 km under
// nearest routing (paper Fig. 3a).
func WorkloadCorrelation(world *trace.World, tr *trace.Trace, seed int64) (*Figure, error) {
	if tr.Slots < 2 {
		return nil, fmt.Errorf("exp: workload correlation needs >= 2 slots, trace has %d", tr.Slots)
	}
	index, err := world.Index()
	if err != nil {
		return nil, err
	}
	m := len(world.Hotspots)

	slotLoad := make([][]float64, m)
	for h := range slotLoad {
		slotLoad[h] = make([]float64, tr.Slots)
	}
	totals := make([]float64, m)
	for _, req := range tr.Requests {
		h, _, ok := index.Nearest(req.Location)
		if !ok {
			return nil, fmt.Errorf("exp: empty hotspot index")
		}
		slotLoad[h][req.Slot]++
		totals[h]++
	}

	pairs := index.Pairs(5.0)
	pairs = samplePairs(pairs, maxCorrelationPairs, seed)
	var corrs []float64
	for _, p := range pairs {
		if totals[p.A] == 0 || totals[p.B] == 0 {
			continue
		}
		rho, err := stats.Spearman(slotLoad[p.A], slotLoad[p.B])
		if err != nil || math.IsNaN(rho) {
			continue
		}
		corrs = append(corrs, rho)
	}
	if len(corrs) == 0 {
		return nil, fmt.Errorf("exp: no hotspot pairs within 5km produced a correlation")
	}
	ecdf, err := stats.NewECDF(corrs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig3a",
		Title:  "Workload correlation between nearby hotspots (Spearman, 1h slots)",
		XLabel: "correlation",
		YLabel: "CDF",
	}
	addCDF(fig, "pairs<5km", ecdf)
	fig.Note("%d pairs; %.0f%% below 0.4 (paper reports ~70%%)", len(corrs), 100*ecdf.At(0.4))
	return fig, nil
}

// Fig3b reproduces the content-similarity measurement (paper Fig. 3b)
// on the measurement-scale world.
func (r *Runner) Fig3b() (*Figure, error) {
	world, tr, err := r.measureData()
	if err != nil {
		return nil, err
	}
	return ContentSimilarity(world, tr, r.Seed)
}

// ContentSimilarity computes CDFs of the Jaccard similarity of top-20%
// content sets between hotspot pairs closer than 5 km, for hotspot
// sample ratios 100%, 50%, 15%, and 3% (paper Fig. 3b).
func ContentSimilarity(world *trace.World, tr *trace.Trace, seed int64) (*Figure, error) {
	fig := &Figure{
		ID:     "fig3b",
		Title:  "Content similarity coefficient between nearby hotspots (top-20% sets)",
		XLabel: "jaccard",
		YLabel: "CDF",
	}
	ratios := []struct {
		name  string
		ratio float64
	}{
		{"Original", 1.0},
		{"Sample=50%", 0.50},
		{"Sample=15%", 0.15},
		{"Sample=3%", 0.03},
	}
	for _, rt := range ratios {
		if n := int(float64(len(world.Hotspots))*rt.ratio + 0.5); n < 2 {
			fig.Note("%s: skipped (%d hotspots sampled, need >= 2)", rt.name, n)
			continue
		}
		sims, n, err := contentSimilarities(world, tr, rt.ratio, seed)
		if err != nil {
			return nil, fmt.Errorf("exp: similarity at ratio %v: %w", rt.ratio, err)
		}
		if len(sims) == 0 {
			fig.Note("%s: no pairs within 5km", rt.name)
			continue
		}
		ecdf, err := stats.NewECDF(sims)
		if err != nil {
			return nil, err
		}
		addCDF(fig, rt.name, ecdf)
		fig.Note("%s: %d hotspots, median similarity %.2f, p10-p90 %.2f-%.2f",
			rt.name, n, ecdf.Quantile(0.5), ecdf.Quantile(0.1), ecdf.Quantile(0.9))
	}
	return fig, nil
}

// contentSimilarities samples ratio of the world's hotspots, remaps the
// trace to the sampled deployment, and returns the Jaccard similarity
// of top-20% content sets for sampled-hotspot pairs within 5 km.
func contentSimilarities(world *trace.World, tr *trace.Trace, ratio float64, seed int64) ([]float64, int, error) {
	m := len(world.Hotspots)
	n := int(float64(m)*ratio + 0.5)
	if n < 2 {
		return nil, 0, fmt.Errorf("exp: sample ratio %v leaves %d hotspots", ratio, n)
	}
	rng := stats.SplitRand(seed, fmt.Sprintf("fig3b-%v", ratio))
	perm := rng.Perm(m)[:n]

	locs := make([]geo.Point, n)
	for i, h := range perm {
		locs[i] = world.Hotspots[h].Location
	}
	grid, err := geo.NewIndex(world.Bounds, perm, locs)
	if err != nil {
		return nil, 0, err
	}

	demand := core.NewDemand(m)
	for _, req := range tr.Requests {
		h, _, ok := grid.Nearest(req.Location)
		if !ok {
			return nil, 0, fmt.Errorf("exp: empty sampled index")
		}
		demand.Add(trace.HotspotID(h), req.Video, 1)
	}
	demand.Fold()
	sigs := make([][]int32, m)
	for h := range sigs {
		sigs[h] = demand.Top(nil, h, similarity.TopCount(demand.Len(h), 0.20))
	}

	pairs := grid.Pairs(5.0)
	pairs = samplePairs(pairs, maxCorrelationPairs, seed)
	var sims []float64
	for _, p := range pairs {
		sa, sb := sigs[p.A], sigs[p.B]
		if len(sa) == 0 || len(sb) == 0 {
			continue // hotspots with no demand have no signature
		}
		sims = append(sims, similarity.JaccardRuns(sa, sb))
	}
	return sims, n, nil
}

// addCDF appends an ECDF summary as a figure series.
func addCDF(fig *Figure, name string, ecdf *stats.ECDF) {
	pts := ecdf.Points(cdfPointsPerSeries)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.P
	}
	fig.AddSeries(name, xs, ys)
}

// samplePairs deterministically subsamples pairs beyond the limit.
func samplePairs(pairs []geo.Pair, limit int, seed int64) []geo.Pair {
	if len(pairs) <= limit {
		return pairs
	}
	rng := stats.SplitRand(seed, "pair-sample")
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs[:limit]
}
