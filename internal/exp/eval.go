package exp

import (
	"fmt"

	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig5 summarises the evaluation deployment (paper Fig. 5): the
// geo-distribution of requests and hotspots over the rectangular
// region. The scatter is summarised as longitude-axis (x) density
// histograms for requests and hotspots plus headline counts.
func (r *Runner) Fig5() (*Figure, error) {
	world, tr, err := r.evalData()
	if err != nil {
		return nil, err
	}

	const bins = 20
	hotspotX := make([]float64, 0, len(world.Hotspots))
	for _, h := range world.Hotspots {
		hotspotX = append(hotspotX, h.Location.X)
	}
	requestX := make([]float64, 0, len(tr.Requests))
	for _, req := range tr.Requests {
		requestX = append(requestX, req.Location.X)
	}
	hHist, err := stats.Histogram(hotspotX, world.Bounds.MinX, world.Bounds.MaxX, bins)
	if err != nil {
		return nil, err
	}
	rHist, err := stats.Histogram(requestX, world.Bounds.MinX, world.Bounds.MaxX, bins)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "fig5",
		Title:  "Geo-distribution of video requests and content hotspots (x-axis density)",
		XLabel: "x(km)",
		YLabel: "fraction",
	}
	xs := make([]float64, bins)
	hy := make([]float64, bins)
	ry := make([]float64, bins)
	w := world.Bounds.Width() / bins
	for b := 0; b < bins; b++ {
		xs[b] = world.Bounds.MinX + (float64(b)+0.5)*w
		hy[b] = float64(hHist[b]) / float64(len(hotspotX))
		ry[b] = float64(rHist[b]) / float64(len(requestX))
	}
	fig.AddSeries("hotspots", xs, hy)
	fig.AddSeries("requests", xs, ry)

	distinct := make(map[trace.VideoID]struct{})
	for _, req := range tr.Requests {
		distinct[req.Video] = struct{}{}
	}
	fig.Note("region %.0fkm x %.0fkm, %d requests, %d distinct videos (catalogue %d), %d content hotspots (paper: 17x11km, 212,472 requests, 15,190 videos, 310 hotspots)",
		world.Bounds.Width(), world.Bounds.Height(), len(tr.Requests), len(distinct),
		world.NumVideos, len(world.Hotspots))
	return fig, nil
}

// evalMetricFigures names and extracts the four metrics of Figs. 6/7.
var evalMetricFigures = []struct {
	suffix string
	title  string
	yLabel string
	get    func(*sim.Metrics) float64
}{
	{"a", "Hotspot serving ratio", "ratio", func(m *sim.Metrics) float64 { return m.HotspotServingRatio }},
	{"b", "Average redirection distance", "km", func(m *sim.Metrics) float64 { return m.AvgAccessDistanceKm }},
	{"c", "Content replication cost", "x video set", func(m *sim.Metrics) float64 { return m.ReplicationCost }},
	{"d", "CDN server workload", "normalized", func(m *sim.Metrics) float64 { return m.CDNServerLoad }},
}

// evalPolicies builds the three compared policies.
func (r *Runner) evalPolicies() []sim.Scheduler {
	return []sim.Scheduler{
		scheme.NewRBCAer(r.coreParams()),
		scheme.Nearest{},
		scheme.Random{RadiusKm: 1.5},
	}
}

// sweep runs the compared policies over worlds produced by configure
// (one per x value) and returns the four metric figures.
func (r *Runner) sweep(idPrefix, sweepName, xLabel string, xs []float64,
	configure func(base *trace.World, x float64) *trace.World) ([]*Figure, error) {

	baseWorld, tr, err := r.evalData()
	if err != nil {
		return nil, err
	}

	policies := r.evalPolicies()
	// results[policy][metric] aligned with xs.
	results := make([][][]float64, len(policies))
	for p := range results {
		results[p] = make([][]float64, len(evalMetricFigures))
	}
	for _, x := range xs {
		world := configure(baseWorld, x)
		for p, policy := range policies {
			m, err := sim.Run(world, tr, policy, r.simOpts())
			if err != nil {
				return nil, fmt.Errorf("exp: %s at %s=%v with %s: %w",
					sweepName, xLabel, x, policy.Name(), err)
			}
			for mi, mf := range evalMetricFigures {
				results[p][mi] = append(results[p][mi], mf.get(m))
			}
		}
	}

	figs := make([]*Figure, 0, len(evalMetricFigures))
	for mi, mf := range evalMetricFigures {
		fig := &Figure{
			ID:     idPrefix + mf.suffix,
			Title:  fmt.Sprintf("%s vs %s", mf.title, sweepName),
			XLabel: xLabel,
			YLabel: mf.yLabel,
		}
		for p, policy := range policies {
			fig.AddSeries(policy.Name(), xs, results[p][mi])
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// withCapacities clones the world overriding every hotspot's service
// and cache capacity as fractions of the video-set size (<= 0 keeps the
// original value).
func withCapacities(world *trace.World, svcFrac, cacheFrac float64) *trace.World {
	out := *world
	out.Hotspots = make([]trace.Hotspot, len(world.Hotspots))
	copy(out.Hotspots, world.Hotspots)
	out.OverrideCapacities(svcFrac, cacheFrac)
	return &out
}

// Fig6 reproduces the service-capacity sweep (paper Fig. 6a-d):
// capacity 2%..7% of the video set with cache fixed at 3%.
func (r *Runner) Fig6() ([]*Figure, error) {
	xs := []float64{0.02, 0.03, 0.04, 0.05, 0.06, 0.07}
	figs, err := r.sweep("fig6", "service capacity", "capacity", xs,
		func(base *trace.World, x float64) *trace.World {
			return withCapacities(base, x, 0.03)
		})
	if err != nil {
		return nil, err
	}
	annotateSweep(figs, "capacity")
	return figs, nil
}

// Fig7 reproduces the cache-size sweep (paper Fig. 7a-d): cache
// 0.5%..5% of the video set with capacity fixed at 5%. The paper's
// x ticks are uneven; the same ticks are used here.
func (r *Runner) Fig7() ([]*Figure, error) {
	xs := []float64{0.005, 0.007, 0.009, 0.01, 0.03, 0.05}
	figs, err := r.sweep("fig7", "cache size", "cache", xs,
		func(base *trace.World, x float64) *trace.World {
			return withCapacities(base, 0.05, x)
		})
	if err != nil {
		return nil, err
	}
	annotateSweep(figs, "cache")
	return figs, nil
}

// annotateSweep adds headline RBCAer-vs-baseline comparisons to the
// four metric figures of a sweep.
func annotateSweep(figs []*Figure, what string) {
	for _, fig := range figs {
		var rb, near *Series
		for i := range fig.Series {
			switch fig.Series[i].Name {
			case "RBCAer":
				rb = &fig.Series[i]
			case "Nearest":
				near = &fig.Series[i]
			}
		}
		if rb == nil || near == nil || len(rb.Y) == 0 || len(rb.Y) != len(near.Y) {
			continue
		}
		// Report the comparison at the midpoint of the sweep.
		mid := len(rb.Y) / 2
		if near.Y[mid] != 0 {
			delta := 100 * (rb.Y[mid] - near.Y[mid]) / near.Y[mid]
			fig.Note("RBCAer vs Nearest at %s=%s: %+.1f%%", what, trimFloat(rb.X[mid]), delta)
		}
	}
}
