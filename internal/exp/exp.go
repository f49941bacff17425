// Package exp is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (Sec. II measurement figures 2,
// 3a, 3b; Sec. V figures 5, 6a-d, 7a-d, 8, 9), plus the ablation
// studies listed in DESIGN.md. Each experiment returns a Figure — a set
// of named numeric series with rendering helpers — so the cmd tools,
// the Go benchmarks, and EXPERIMENTS.md all share one source of truth.
package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Series is one named line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is the data behind one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries headline observations (e.g. "99th/median = 9.1x").
	Notes []string
}

// AddSeries appends a series, copying the slices.
func (f *Figure) AddSeries(name string, x, y []float64) {
	xs := make([]float64, len(x))
	ys := make([]float64, len(y))
	copy(xs, x)
	copy(ys, y)
	f.Series = append(f.Series, Series{Name: name, X: xs, Y: ys})
}

// Note appends a formatted observation.
func (f *Figure) Note(format string, args ...interface{}) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Render writes the figure as an aligned text table: one x column and
// one column per series. Series with differing x grids are rendered on
// the union grid with blanks for missing points.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	// Union x grid.
	xset := make(map[float64]struct{})
	for _, s := range f.Series {
		for _, x := range s.X {
			xset[x] = struct{}{}
		}
	}
	grid := make([]float64, 0, len(xset))
	for x := range xset {
		grid = append(grid, x)
	}
	sort.Float64s(grid)

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range grid {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	if err := writeAligned(w, rows); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

func writeAligned(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes the paper's experiments. Scale (in (0, 1]) shrinks
// the worlds proportionally so tests and quick runs stay fast; Scale=1
// reproduces the paper-scale setups.
type Runner struct {
	Seed  int64
	Scale float64
	// Workers bounds the experiments' scheduling parallelism: it is
	// forwarded to core.Params.Workers for every RBCAer instance, and
	// per-slot-independent policies schedule their timeslots
	// concurrently on this many goroutines (scheme.Factory.Run).
	// 0 selects runtime.GOMAXPROCS(0); 1 forces serial runs. Results
	// are identical for every value.
	Workers int
	// Obs, when set, receives every simulation's counters and the
	// cluster/balance/replicate/simulate phase timers across the
	// runner's experiments (RBCAer rounds publish their core.* counters
	// to it too).
	Obs *obs.Registry
	// Tracer, when set, records round and slot events from every
	// simulation the experiments run.
	Tracer *obs.Tracer

	evalWorld *trace.World
	evalTrace *trace.Trace
	measWorld *trace.World
	measTrace *trace.Trace
}

// coreParams returns the paper's default RBCAer parameters with the
// runner's parallelism and observability applied.
func (r *Runner) coreParams() core.Params {
	p := core.DefaultParams()
	p.Workers = r.Workers
	p.Obs = r.Obs
	p.RecordEvents = r.Tracer != nil
	return p
}

// simOpts returns the runner's base simulation options: its seed plus
// the shared observability backends.
func (r *Runner) simOpts() sim.Options {
	return sim.Options{Seed: r.Seed, Registry: r.Obs, Tracer: r.Tracer}
}

// runScheme replays the trace under a scheme-table policy (1.5 km
// routing radius, the runner's RBCAer parameters) on the runner's
// workers.
func (r *Runner) runScheme(name string, world *trace.World, tr *trace.Trace, opts sim.Options) (*sim.Metrics, error) {
	f, err := scheme.Lookup(name, 1.5, r.coreParams(), shard.Params{}, r.Workers)
	if err != nil {
		return nil, err
	}
	return f.Run(world, tr, r.Workers, opts)
}

// evalData generates (once) and returns the Sec. V world and trace.
func (r *Runner) evalData() (*trace.World, *trace.Trace, error) {
	if r.evalWorld == nil {
		world, tr, err := trace.Generate(r.evalConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("exp: generating evaluation world: %w", err)
		}
		r.evalWorld, r.evalTrace = world, tr
	}
	return r.evalWorld, r.evalTrace, nil
}

// measureData generates (once) and returns the Sec. II world and trace.
func (r *Runner) measureData() (*trace.World, *trace.Trace, error) {
	if r.measWorld == nil {
		world, tr, err := trace.Generate(r.measurementConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("exp: generating measurement world: %w", err)
		}
		r.measWorld, r.measTrace = world, tr
	}
	return r.measWorld, r.measTrace, nil
}

// UseMeasurementData makes world and tr the Sec. II data the
// measurement experiments (MeasurementExperiments) read, in place of
// the generated measurement-scale pair.
func (r *Runner) UseMeasurementData(world *trace.World, tr *trace.Trace) {
	r.measWorld, r.measTrace = world, tr
}

// NewRunner returns a runner at the given scale (clamped into (0, 1]).
func NewRunner(seed int64, scale float64) *Runner {
	if !(scale > 0 && scale <= 1) {
		scale = 1
	}
	return &Runner{Seed: seed, Scale: scale}
}

// evalConfig returns the Sec. V configuration scaled by r.Scale.
func (r *Runner) evalConfig() trace.Config {
	return scaleConfig(trace.DefaultConfig(), r.Scale, r.Seed)
}

// measurementConfig returns the Sec. II configuration scaled by
// r.Scale.
func (r *Runner) measurementConfig() trace.Config {
	return scaleConfig(trace.MeasurementConfig(), r.Scale, r.Seed)
}

// scaleConfig shrinks a configuration's population counts by s, keeping
// densities comparable by also shrinking the region area by s (linear
// dimensions by sqrt(s)).
func scaleConfig(cfg trace.Config, s float64, seed int64) trace.Config {
	if seed != 0 {
		cfg.Seed = seed
	}
	if s >= 1 {
		return cfg
	}
	scaleInt := func(v int, lo int) int {
		n := int(float64(v)*s + 0.5)
		if n < lo {
			n = lo
		}
		return n
	}
	lin := math.Sqrt(s)
	cfg.Bounds.MaxX = cfg.Bounds.MinX + cfg.Bounds.Width()*lin
	cfg.Bounds.MaxY = cfg.Bounds.MinY + cfg.Bounds.Height()*lin
	origHotspots, origVideos := cfg.NumHotspots, cfg.NumVideos
	cfg.NumHotspots = scaleInt(cfg.NumHotspots, 12)
	cfg.NumVideos = scaleInt(cfg.NumVideos, 200)
	cfg.NumUsers = scaleInt(cfg.NumUsers, 500)
	cfg.NumRegions = scaleInt(cfg.NumRegions, 4)
	// Total service capacity scales with hotspots x videos; scale the
	// request volume by the same factor so the paper's ~1.1x
	// oversubscription ratio — the regime request balancing operates
	// in — is preserved at every scale.
	capScale := float64(cfg.NumHotspots) * float64(cfg.NumVideos) /
		(float64(origHotspots) * float64(origVideos))
	cfg.NumRequests = int(float64(cfg.NumRequests)*capScale + 0.5)
	if cfg.NumRequests < 2000 {
		cfg.NumRequests = 2000
	}
	return cfg
}

// experiment is one row of the experiment table.
type experiment struct {
	id string
	// paper marks a figure of the paper's evaluation; the rest are this
	// reproduction's extensions and ablations.
	paper bool
	run   func(*Runner) ([]*Figure, error)
}

// experiments is the one place an experiment id maps to the code that
// runs it, in the order the lists report and cdnexp's "all"/"ext" run
// them: the paper's figures, the extensions (DESIGN.md §6), the
// ablations (§5).
var experiments = []experiment{
	{"fig2", true, one((*Runner).Fig2)},
	{"fig3a", true, one((*Runner).Fig3a)},
	{"fig3b", true, one((*Runner).Fig3b)},
	{"fig5", true, one((*Runner).Fig5)},
	{"fig6", true, (*Runner).Fig6},
	{"fig7", true, (*Runner).Fig7},
	{"fig8", true, one((*Runner).Fig8)},
	{"fig9", true, one((*Runner).Fig9)},
	{"ext-hier", false, one((*Runner).ExtHierarchical)},
	{"ext-churn", false, one((*Runner).ExtChurn)},
	{"ext-shard", false, one((*Runner).ExtShard)},
	{"resilience", false, (*Runner).Resilience},
	ablation("abl-guides", "guide-node construction",
		ablVariant{"avg-distance", func(p *core.Params) { p.GuideCost = core.GuideCostAvgDistance }},
		ablVariant{"avg-capacity(literal)", func(p *core.Params) { p.GuideCost = core.GuideCostAvgCapacity }},
		ablVariant{"no-guides", func(p *core.Params) { p.DisableGuides = true }}),
	ablation("abl-theta", "θ schedule",
		ablVariant{"sweep", func(p *core.Params) {}},
		ablVariant{"single-shot", func(p *core.Params) { p.SingleShotTheta = true }}),
	{"abl-prediction", false, one((*Runner).AblatePrediction)},
	ablation("abl-cluster", "cluster cut threshold",
		ablVariant{"cut=0.5(paper)", func(p *core.Params) { p.ClusterCut = 0.5 }},
		ablVariant{"cut=0.65", func(p *core.Params) { p.ClusterCut = 0.65 }},
		ablVariant{"cut=0.75", func(p *core.Params) { p.ClusterCut = 0.75 }},
		ablVariant{"cut=0.85", func(p *core.Params) { p.ClusterCut = 0.85 }}),
	{"abl-workers", false, one((*Runner).AblWorkers)},
}

// one adapts a single-figure experiment to the table's signature.
func one(f func(*Runner) (*Figure, error)) func(*Runner) ([]*Figure, error) {
	return func(r *Runner) ([]*Figure, error) {
		fig, err := f(r)
		if err != nil {
			return nil, err
		}
		return []*Figure{fig}, nil
	}
}

// ids lists the table's paper or non-paper experiment ids in order.
func ids(paper bool) []string {
	var out []string
	for _, e := range experiments {
		if e.paper == paper {
			out = append(out, e.id)
		}
	}
	return out
}

// Experiments lists the paper's experiment IDs, in order.
func Experiments() []string { return ids(true) }

// ExtensionExperiments lists the experiments this reproduction adds
// beyond the paper's figures, in order.
func ExtensionExperiments() []string { return ids(false) }

// MeasurementExperiments lists the experiments that read the Sec. II
// measurement data, in order; no other experiment reads it.
func MeasurementExperiments() []string { return []string{"fig2", "fig3a", "fig3b"} }

// Run executes one experiment by ID and returns its figures (a sweep
// like fig6 yields one figure per metric).
func (r *Runner) Run(id string) ([]*Figure, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (want one of %s or %s)",
		id, strings.Join(Experiments(), ", "), strings.Join(ExtensionExperiments(), ", "))
}
