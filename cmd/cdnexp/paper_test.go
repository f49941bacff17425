package main

import (
	"fmt"
	"math"
	"slices"
	"testing"

	crowdcdn "repro"
)

// Series names of the evaluation figures.
const (
	rbcaer  = "RBCAer"
	nearest = "Nearest"
	random  = "Random(1.5km)"
)

// TestPaperClaims holds the reproduction to the paper's evaluation at
// paper scale (seed 1, scale 1): one check per "vs paper" row of
// EXPERIMENTS.md for Fig. 6, 7 and 9. Orderings and signs are exact; a
// magnitude may fall short of the paper's by at most half its effect.
// Rows the reproduction does not meet are known gaps: logged with the
// paper's figure next to the measured one, not gated, and listed in
// EXPERIMENTS.md.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	runner := crowdcdn.NewExperimentRunner(1, 1)
	figs := make(map[string]*crowdcdn.Figure)
	for _, id := range []string{"fig6", "fig7", "fig9"} {
		out, err := runner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, f := range out {
			figs[f.ID] = f
		}
	}
	c := claims{t: t, figs: figs}

	// Fig. 6: service capacity 2–7 %, cache 3 %.
	c.gate("6a: RBCAer serves at least Nearest's ratio at every capacity",
		c.everywhere("fig6a", func(x float64) bool { return c.y("fig6a", rbcaer, x) >= c.y("fig6a", nearest, x) }))
	gap2, gap7 := c.diff("fig6a", rbcaer, nearest, 0.02), c.diff("fig6a", rbcaer, nearest, 0.07)
	c.gate(fmt.Sprintf("6a: the serving-ratio gap to Nearest grows with capacity (%+.3f at 2%% → %+.3f at 7%%)", gap2, gap7),
		gap7 > gap2)
	c.gate(fmt.Sprintf("6a: the gap to Nearest at 7%% capacity is at least 0.06, half the paper's 12 points (measured %.3f)", gap7),
		gap7 >= 0.06)
	target := c.y("fig6a", rbcaer, 0.04)
	needN, needR := c.reach("fig6a", nearest, target), c.reach("fig6a", random, target)
	c.gate(fmt.Sprintf("6a: Nearest needs ≥ 4.6%% capacity to match RBCAer's ratio at 4%% (%.3f), half the paper's 5.2%% − 4%% (measured %.2f%%)", target, 100*needN),
		needN >= 0.046)
	c.gap("6a: Random needs more than 4% capacity to match RBCAer's ratio at 4%",
		"5.7%", fmt.Sprintf("%.2f%%", 100*needR), needR > 0.04)
	red := c.reduction("fig6b", nearest, 0.05)
	c.gate(fmt.Sprintf("6b: RBCAer's distance at 5%% capacity is at least 21%% below Nearest's, half the paper's 42%% (measured %.1f%%)", 100*red),
		red >= 0.21)
	for _, s := range []string{nearest, random} {
		c.gate("6c: "+s+"'s replication is flat in capacity (within 1%)", c.flat("fig6c", s, 0.01))
	}
	c.gate("6c: RBCAer's replication rises with capacity", c.rising("fig6c", rbcaer, true))
	c.gate("6c: replication orders RBCAer < Nearest < Random at every capacity",
		c.everywhere("fig6c", func(x float64) bool {
			return c.y("fig6c", rbcaer, x) < c.y("fig6c", nearest, x) && c.y("fig6c", nearest, x) < c.y("fig6c", random, x)
		}))
	red = c.reduction("fig6d", nearest, 0.05)
	c.gate(fmt.Sprintf("6d: RBCAer's CDN load at 5%% capacity is at least 11%% below Nearest's, half the paper's 22%% (measured %.1f%%)", 100*red),
		red >= 0.11)

	// Fig. 7: cache 0.5–5 %, service capacity 5 %.
	for _, s := range []string{rbcaer, nearest, random} {
		c.gate("7a: "+s+"'s serving ratio rises with cache", c.rising("fig7a", s, false))
	}
	target = c.y("fig7a", rbcaer, 0.01)
	needN, needR = c.reach("fig7a", nearest, target), c.reach("fig7a", random, target)
	c.gate(fmt.Sprintf("7a: Nearest needs ≥ 2x RBCAer's 1%% cache to match its ratio there (%.3f), half the paper's extra (2%% against 0.67%%) (measured %.2f%%)", target, 100*needN),
		needN >= 0.02)
	c.gap("7a: Random needs more than 1% cache to match RBCAer's ratio at 1%",
		"3% against RBCAer's 0.67%", fmt.Sprintf("%.2f%%", 100*needR), needR > 0.01)
	c.gate("7b: RBCAer's distance is below Nearest's at every cache",
		c.everywhere("fig7b", func(x float64) bool { return c.y("fig7b", rbcaer, x) < c.y("fig7b", nearest, x) }))
	for _, x := range []float64{0.03, 0.05} {
		red := c.reduction("fig7b", nearest, x)
		c.gate(fmt.Sprintf("7b: RBCAer's distance at %g%% cache is at least 25%% below Nearest's, half the paper's ≈ 50%% (measured %.1f%%)", 100*x, 100*red),
			red >= 0.25)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range []float64{0.005, 0.007, 0.009, 0.01} {
		red := c.reduction("fig7b", nearest, x)
		lo, hi = min(lo, red), max(hi, red)
	}
	c.gap("7b: RBCAer's distance reduction vs Nearest at caches ≤ 1%",
		"≈ 50%", fmt.Sprintf("%.1f–%.1f%%", 100*lo, 100*hi), lo >= 0.25)
	var above []string
	for _, x := range c.xs("fig7b") {
		if c.y("fig7b", rbcaer, x) > c.y("fig7b", random, x) {
			above = append(above, fmt.Sprintf("%.1f%%", 100*x))
		}
	}
	c.gap("7b: RBCAer's distance at or below Random's at every cache",
		"at or below", fmt.Sprintf("above Random at %v", above), len(above) == 0)
	for _, s := range []string{rbcaer, nearest, random} {
		c.gate("7c: "+s+"'s replication rises with cache", c.rising("fig7c", s, true))
	}
	c.gate("7c: RBCAer's replication is the lowest at every cache, Random's the highest",
		c.everywhere("fig7c", func(x float64) bool {
			r, n, rnd := c.y("fig7c", rbcaer, x), c.y("fig7c", nearest, x), c.y("fig7c", random, x)
			return r < n && r < rnd && rnd > n
		}))
	tie, apart := c.y("fig7c", rbcaer, 0.009)/c.y("fig7c", nearest, 0.009), c.y("fig7c", rbcaer, 0.03)/c.y("fig7c", nearest, 0.03)
	c.gate(fmt.Sprintf("7c: RBCAer/Nearest replication is nearer a tie at 0.9%% cache than at 3%% (%.3f vs %.3f)", tie, apart),
		tie > apart)
	explode := func(x float64) float64 { return c.y("fig7c", random, x) / c.y("fig7c", nearest, x) }
	c.gate(fmt.Sprintf("7c: Random's replication pulls away from Nearest's as cache grows (%.2fx at 0.5%% → %.2fx at 5%%)", explode(0.005), explode(0.05)),
		explode(0.05) > explode(0.005))
	for _, s := range []string{nearest, random} {
		xs, ys := c.xs("fig7d"), c.series("fig7d", s)
		k := argmin(ys)
		c.gate(fmt.Sprintf("7d: %s's CDN load dips then rises with cache, its minimum at or below 1%% (minimum %.4f at %g%%)", s, ys[k], 100*xs[k]),
			k > 0 && k < len(ys)-1 && xs[k] <= 0.01 && ys[len(ys)-1] > ys[k])
	}
	c.gate("7d: RBCAer's CDN load is below Nearest's at every cache",
		c.everywhere("fig7d", func(x float64) bool { return c.y("fig7d", rbcaer, x) < c.y("fig7d", nearest, x) }))

	// Fig. 9: θ from 0 to 7.5 km.
	flow15, flow75 := c.y("fig9", "%ofMaxflow", 1.5), c.y("fig9", "%ofMaxflow", 7.5)
	edges75 := c.y("fig9", "%of|V|^2", 7.5)
	c.gate("9: flow and edge count rise with θ", c.rising("fig9", "%ofMaxflow", false) && c.rising("fig9", "%of|V|^2", true))
	c.gate(fmt.Sprintf("9: θ = 1.5 km carries 40–60%% of maxflow, paper ≈ 50%% (measured %.1f%%)", 100*flow15),
		flow15 >= 0.40 && flow15 <= 0.60)
	c.gate(fmt.Sprintf("9: θ = 7.5 km carries all of maxflow (measured %.1f%%)", 100*flow75), flow75 == 1)
	c.gate(fmt.Sprintf("9: θ = 7.5 km keeps 5.5–16.5%% of |V|² edges, paper 11%% (measured %.1f%%)", 100*edges75),
		edges75 >= 0.055 && edges75 <= 0.165)
}

// claims reads the figures' series and gates or logs each row.
type claims struct {
	t    *testing.T
	figs map[string]*crowdcdn.Figure
}

// gate fails the test unless the row holds.
func (c claims) gate(row string, ok bool) {
	c.t.Helper()
	if !ok {
		c.t.Errorf("paper claim not met: %s", row)
	}
}

// gap logs a known gap: a row the reproduction does not meet today.
func (c claims) gap(row, paper, measured string, met bool) {
	c.t.Helper()
	status := "known gap"
	if met {
		status = "known gap now met (update EXPERIMENTS.md and gate it)"
	}
	c.t.Logf("%s: %s: paper %s, measured %s", status, row, paper, measured)
}

func (c claims) fig(id string) *crowdcdn.Figure {
	c.t.Helper()
	f, ok := c.figs[id]
	if !ok {
		c.t.Fatalf("figure %s not produced", id)
	}
	return f
}

// xs returns the figure's x grid (every series shares it).
func (c claims) xs(id string) []float64 {
	c.t.Helper()
	return c.fig(id).Series[0].X
}

func (c claims) series(id, name string) []float64 {
	c.t.Helper()
	for _, s := range c.fig(id).Series {
		if s.Name == name {
			return s.Y
		}
	}
	c.t.Fatalf("%s has no series %q", id, name)
	return nil
}

// y is series name's value at x.
func (c claims) y(id, name string, x float64) float64 {
	c.t.Helper()
	i := slices.Index(c.xs(id), x)
	if i < 0 {
		c.t.Fatalf("%s has no point at x = %g", id, x)
	}
	return c.series(id, name)[i]
}

// diff is a − b at x.
func (c claims) diff(id, a, b string, x float64) float64 {
	return c.y(id, a, x) - c.y(id, b, x)
}

// reduction is RBCAer's relative reduction against baseline at x.
func (c claims) reduction(id, baseline string, x float64) float64 {
	return 1 - c.y(id, rbcaer, x)/c.y(id, baseline, x)
}

// everywhere reports whether ok holds at every x of the figure.
func (c claims) everywhere(id string, ok func(x float64) bool) bool {
	for _, x := range c.xs(id) {
		if !ok(x) {
			return false
		}
	}
	return true
}

// rising reports whether the series rises over its x grid: strictly
// at every step, or never falling and ending above its start.
func (c claims) rising(id, name string, strict bool) bool {
	ys := c.series(id, name)
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] || strict && ys[i] == ys[i-1] {
			return false
		}
	}
	return ys[len(ys)-1] > ys[0]
}

// flat reports whether the series stays within tol of its minimum.
func (c claims) flat(id, name string, tol float64) bool {
	ys := c.series(id, name)
	return slices.Max(ys) <= slices.Min(ys)*(1+tol)
}

// reach is the x at which the series first reaches target, linearly
// interpolated between grid points; +Inf if it never does.
func (c claims) reach(id, name string, target float64) float64 {
	xs, ys := c.xs(id), c.series(id, name)
	if ys[0] >= target {
		return xs[0]
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] >= target {
			return xs[i-1] + (xs[i]-xs[i-1])*(target-ys[i-1])/(ys[i]-ys[i-1])
		}
	}
	return math.Inf(1)
}

// argmin is the index of the smallest value (the first on ties).
func argmin(ys []float64) int {
	k := 0
	for i, y := range ys {
		if y < ys[k] {
			k = i
		}
	}
	return k
}
