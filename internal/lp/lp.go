// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x (<=|=|>=) b_i   for each constraint i
//	            x >= 0
//
// It replaces the GLPK solver the paper used for its LP-relaxation
// baseline (Fig. 8): the LP-based request-redirection scheme relaxes
// the joint ILP, solves it with this package, and rounds the fractional
// solution. The solver uses a dense tableau with Bland's anti-cycling
// rule, which is robust and more than fast enough to demonstrate the
// paper's point that LP-based scheduling is orders of magnitude slower
// than RBCAer.
package lp

import (
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE constrains a·x <= b.
	LE Op = iota + 1
	// GE constrains a·x >= b.
	GE
	// EQ constrains a·x == b.
	EQ
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Var identifies a decision variable of a Problem.
type Var int

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal feasible solution was found.
	Optimal Status = iota + 1
	// Infeasible means no point satisfies all constraints.
	Infeasible
	// Unbounded means the objective can decrease without bound.
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

type constraint struct {
	coeffs map[Var]float64
	op     Op
	rhs    float64
}

// Pricing selects the simplex entering-variable rule.
type Pricing int

const (
	// BlandPricing picks the lowest-index improving column. Slow but
	// provably cycle-free; the default.
	BlandPricing Pricing = iota + 1
	// DantzigPricing picks the most-negative reduced cost — usually far
	// fewer iterations. A stall detector falls back to Bland's rule if
	// the objective stops improving, preserving termination.
	DantzigPricing
)

// String implements fmt.Stringer.
func (p Pricing) String() string {
	switch p {
	case BlandPricing:
		return "bland"
	case DantzigPricing:
		return "dantzig"
	default:
		return fmt.Sprintf("pricing(%d)", int(p))
	}
}

// Problem is a linear program under construction. The zero value is an
// empty problem ready for use.
type Problem struct {
	// Pricing selects the entering rule; the zero value means
	// BlandPricing.
	Pricing Pricing

	costs []float64
	cons  []constraint
}

// AddVariable adds a non-negative decision variable with the given
// objective coefficient and returns its identifier.
func (p *Problem) AddVariable(cost float64) Var {
	p.costs = append(p.costs, cost)
	return Var(len(p.costs) - 1)
}

// AddConstraint adds the constraint sum(coeffs[v]*v) op rhs. All
// referenced variables must already exist and all values be finite.
func (p *Problem) AddConstraint(coeffs map[Var]float64, op Op, rhs float64) error {
	switch op {
	case LE, GE, EQ:
	default:
		return fmt.Errorf("lp: unknown op %v", op)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: non-finite rhs %v", rhs)
	}
	copied := make(map[Var]float64, len(coeffs))
	for v, c := range coeffs {
		if int(v) < 0 || int(v) >= len(p.costs) {
			return fmt.Errorf("lp: unknown variable %d", v)
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: non-finite coefficient %v for variable %d", c, v)
		}
		copied[v] = c
	}
	p.cons = append(p.cons, constraint{coeffs: copied, op: op, rhs: rhs})
	return nil
}

// Solution holds the result of a successful Solve.
type Solution struct {
	Status    Status
	Objective float64
	values    []float64
}

// Value returns the optimal value of variable v (0 when v is out of
// range or the problem was not Optimal).
func (s *Solution) Value(v Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.values) {
		return 0
	}
	return s.values[v]
}

// Values returns a copy of all variable values in declaration order.
func (s *Solution) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

const (
	solveEps = 1e-7
	pivotEps = 1e-9
)

// Solve runs the two-phase simplex method. The returned Solution's
// Status is always set; Objective and Value are meaningful only when
// Status is Optimal.
func (p *Problem) Solve() (*Solution, error) {
	n := len(p.costs)
	m := len(p.cons)
	if n == 0 {
		return nil, fmt.Errorf("lp: no variables")
	}

	// Count auxiliary columns: one slack/surplus per inequality, one
	// artificial per >= or == row (and per <= row with negative rhs
	// after normalisation — handled by normalising first).
	type rowForm struct {
		coeffs map[Var]float64
		rhs    float64
		op     Op
	}
	rows := make([]rowForm, m)
	for i, c := range p.cons {
		r := rowForm{coeffs: c.coeffs, rhs: c.rhs, op: c.op}
		if r.rhs < 0 {
			// Multiply through by -1 so b >= 0.
			neg := make(map[Var]float64, len(r.coeffs))
			for v, cf := range r.coeffs {
				neg[v] = -cf
			}
			r.coeffs = neg
			r.rhs = -r.rhs
			switch r.op {
			case LE:
				r.op = GE
			case GE:
				r.op = LE
			}
		}
		rows[i] = r
	}

	nSlack := 0
	nArt := 0
	for _, r := range rows {
		switch r.op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	total := n + nSlack + nArt
	// Dense tableau: m rows of (total coefficients + rhs).
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := n + nSlack
	artStart := n + nSlack
	for i, r := range rows {
		row := make([]float64, total+1)
		for v, cf := range r.coeffs {
			row[int(v)] += cf
		}
		row[total] = r.rhs
		switch r.op {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		}
		tab[i] = row
	}

	pricing := p.Pricing
	if pricing == 0 {
		pricing = BlandPricing
	}
	switch pricing {
	case BlandPricing, DantzigPricing:
	default:
		return nil, fmt.Errorf("lp: unknown pricing %v", pricing)
	}

	// Phase 1: minimise the sum of artificial variables.
	if nArt > 0 {
		phase1 := make([]float64, total)
		for j := artStart; j < total; j++ {
			phase1[j] = 1
		}
		obj, err := runSimplex(tab, basis, phase1, total, pricing)
		if err != nil {
			return nil, fmt.Errorf("lp: phase 1: %w", err)
		}
		if obj > solveEps {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		for i := range basis {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > pivotEps {
					pivot(tab, basis, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: all original coefficients zero. Its
				// rhs must be ~0 (phase-1 optimal); leave the
				// artificial basic at zero, it can never re-enter
				// because phase 2 forbids artificial columns.
				continue
			}
		}
	}

	// Phase 2: original objective over the first n + nSlack columns.
	phase2 := make([]float64, total)
	copy(phase2, p.costs)
	// Forbid artificial columns from re-entering by pricing them out.
	obj, err := runSimplexRestricted(tab, basis, phase2, total, artStart, pricing)
	if err != nil {
		if err == errUnbounded {
			return &Solution{Status: Unbounded}, nil
		}
		return nil, fmt.Errorf("lp: phase 2: %w", err)
	}

	values := make([]float64, n)
	for i, b := range basis {
		if b < n {
			values[b] = tab[i][total]
		}
	}
	return &Solution{Status: Optimal, Objective: obj, values: values}, nil
}

var errUnbounded = fmt.Errorf("objective unbounded below")

// runSimplex minimises cost over all columns.
func runSimplex(tab [][]float64, basis []int, cost []float64, total int, pricing Pricing) (float64, error) {
	obj, err := runSimplexRestricted(tab, basis, cost, total, total, pricing)
	if err == errUnbounded {
		// Phase 1 objective is bounded below by 0; unboundedness here
		// indicates numerical trouble.
		return 0, fmt.Errorf("lp: phase objective unbounded (numerical issue)")
	}
	return obj, err
}

// runSimplexRestricted minimises cost, allowing only columns < allow to
// enter the basis. Returns the optimal objective value.
func runSimplexRestricted(tab [][]float64, basis []int, cost []float64, total, allow int, pricing Pricing) (float64, error) {
	m := len(tab)
	// Reduced costs: z_j - c_j computed directly each iteration would
	// be O(m*total); maintain an explicit objective row instead.
	// objRow[j] holds c_j - sum_i cost[basis[i]] * tab[i][j] (the
	// reduced cost), objRow[total] holds -objective.
	objRow := make([]float64, total+1)
	copy(objRow, cost)
	for i := 0; i < m; i++ {
		cb := cost[basis[i]]
		if cb == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			objRow[j] -= cb * tab[i][j]
		}
	}

	// A generous iteration cap; Bland's rule guarantees termination
	// but a cap turns any bug into an error instead of a hang.
	maxIter := 50 * (m + total + 10)
	// Dantzig stall detection: if the objective fails to improve for
	// this many iterations, switch to Bland permanently (anti-cycling).
	stallLimit := 2 * (m + 10)
	stalled := 0
	lastObj := math.Inf(1)
	useBland := pricing != DantzigPricing
	for iter := 0; iter < maxIter; iter++ {
		if !useBland {
			if cur := -objRow[total]; cur < lastObj-solveEps {
				lastObj = cur
				stalled = 0
			} else {
				stalled++
				if stalled > stallLimit {
					useBland = true
				}
			}
		}
		enter := -1
		if useBland {
			// Bland: smallest index with negative reduced cost.
			for j := 0; j < allow; j++ {
				if objRow[j] < -solveEps {
					enter = j
					break
				}
			}
		} else {
			// Dantzig: most negative reduced cost.
			best := -solveEps
			for j := 0; j < allow; j++ {
				if objRow[j] < best {
					best = objRow[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return -objRow[total], nil
		}
		// Ratio test with Bland tie-breaking on basis variable index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a <= pivotEps {
				continue
			}
			ratio := tab[i][total] / a
			if ratio < bestRatio-solveEps ||
				(ratio < bestRatio+solveEps && (leave < 0 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			return 0, errUnbounded
		}
		pivotWithObj(tab, basis, objRow, leave, enter, total)
	}
	return 0, fmt.Errorf("lp: iteration limit exceeded")
}

// pivot makes column enter basic in row leave (no objective row).
func pivot(tab [][]float64, basis []int, leave, enter, total int) {
	pivotRow := tab[leave]
	pv := pivotRow[enter]
	inv := 1 / pv
	for j := 0; j <= total; j++ {
		pivotRow[j] *= inv
	}
	pivotRow[enter] = 1 // exact
	for i := range tab {
		if i == leave {
			continue
		}
		f := tab[i][enter]
		if f == 0 {
			continue
		}
		row := tab[i]
		for j := 0; j <= total; j++ {
			row[j] -= f * pivotRow[j]
		}
		row[enter] = 0 // exact
	}
	basis[leave] = enter
}

// pivotWithObj pivots and also updates the reduced-cost row.
func pivotWithObj(tab [][]float64, basis []int, objRow []float64, leave, enter, total int) {
	pivot(tab, basis, leave, enter, total)
	f := objRow[enter]
	if f != 0 {
		pivotRow := tab[leave]
		for j := 0; j <= total; j++ {
			objRow[j] -= f * pivotRow[j]
		}
		objRow[enter] = 0
	}
}
