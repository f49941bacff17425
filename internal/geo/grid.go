package geo

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Grid is a uniform-grid spatial index over points with integer IDs.
// It supports the three queries the simulator needs at scale:
//
//   - Nearest: map each of hundreds of thousands of requests to its
//     nearest content hotspot,
//   - Within: find all hotspots within a routing radius (the paper's
//     Random scheme and the θ-bounded flow edges), and
//   - Pairs: enumerate hotspot pairs closer than a radius (the
//     measurement study's <5 km pair analyses).
//
// Points may lie outside the nominal bounds; they are clamped into the
// boundary cells, so queries remain correct (if slower) for outliers.
//
// A Grid is complete when NewIndex or Subset returns it, and never
// changes after: it is safe for concurrent queries.
type Grid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32 // cell -> point indexes
	ids      []int
	pts      []Point
	// table answers in-bounds Nearest queries.
	table nearestTable
}

// nearestTable lists, per cell, every point that can be nearest to a
// query inside the cell: cell c's candidates are cands[at[c]:at[c+1]],
// in the order the ring search visits them.
type nearestTable struct {
	at    []int32
	cands []candidate
}

// candidate is a point stored inline, so a query reads one span.
type candidate struct {
	p  Point
	id int
}

// NewIndex indexes the points pts[i] under ids[i], inserted in that
// order, in cells sized for about one point each (at least 50 m), and
// builds the nearest-candidate table.
func NewIndex(bounds Rect, ids []int, pts []Point) (*Grid, error) {
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("geo: %d ids for %d points", len(ids), len(pts))
	}
	cell := 1.0
	if n := len(pts); n > 0 {
		cell = math.Max(0.05, math.Sqrt(bounds.Area()/float64(n)))
	}
	g, err := newGrid(bounds, cell)
	if err != nil {
		return nil, err
	}
	g.fill(slices.Clone(ids), slices.Clone(pts))
	return g, nil
}

// Subset returns an index over the same bounds and cells holding the
// points whose id keep accepts, in insertion order, with its table
// built.
func (g *Grid) Subset(keep func(id int) bool) *Grid {
	out := &Grid{bounds: g.bounds, cellSize: g.cellSize, cols: g.cols, rows: g.rows}
	var ids []int
	var pts []Point
	for i, id := range g.ids {
		if keep(id) {
			ids = append(ids, id)
			pts = append(pts, g.pts[i])
		}
	}
	out.fill(ids, pts)
	return out
}

// newGrid lays out an empty index over bounds with roughly
// cellSize-sized cells. cellSize must be positive and bounds must be
// valid with positive area.
func newGrid(bounds Rect, cellSize float64) (*Grid, error) {
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: invalid grid bounds %+v", bounds)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: non-positive cell size %v", cellSize)
	}
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     max(int(math.Ceil(bounds.Width()/cellSize)), 1),
		rows:     max(int(math.Ceil(bounds.Height()/cellSize)), 1),
	}, nil
}

// fill indexes pts[i] under ids[i], in that order, taking both slices,
// and builds the nearest-candidate table. IDs need not be unique or
// dense; queries return them verbatim.
func (g *Grid) fill(ids []int, pts []Point) {
	g.ids, g.pts = ids, pts
	g.cells = make([][]int32, g.cols*g.rows)
	for i, p := range pts {
		c := g.cellOf(p)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	g.table = g.buildTable()
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.ids) }

// Bounds returns the nominal bounds of the index.
func (g *Grid) Bounds() Rect { return g.bounds }

// col and row map a coordinate to its cell column or row, clamped into
// the grid (NaN to 0).
func (g *Grid) col(x float64) int {
	return clampCell((x-g.bounds.MinX)/g.cellSize, g.cols)
}

func (g *Grid) row(y float64) int {
	return clampCell((y-g.bounds.MinY)/g.cellSize, g.rows)
}

func clampCell(f float64, n int) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(n-1):
		return n - 1
	default:
		return int(f)
	}
}

func (g *Grid) cellOf(p Point) int { return g.row(p.Y)*g.cols + g.col(p.X) }

// Nearest returns the ID and distance of the indexed point closest to
// p. ok is false when the index is empty. Among points at the minimum
// distance the first one visited wins: the query's own cell first, then
// each ring of cells around it in ringCells order, and insertion
// order only within one cell. Online ingest and offline slot contexts
// both resolve requests through it, so this rule is part of what makes
// their plans equal.
//
// A query inside the bounds scans only its cell's candidate list, which
// holds every point that can be nearest to anything in the cell, in
// that visit order, so it returns what the ring search would. A query
// outside the bounds runs the ring search.
func (g *Grid) Nearest(p Point) (id int, dist float64, ok bool) {
	if len(g.ids) == 0 {
		return 0, 0, false
	}
	if !g.bounds.Contains(p) {
		return g.ringNearest(p)
	}
	t := &g.table
	c := g.cellOf(p)
	best, bestD := 0, math.Inf(1)
	for i, cd := range t.cands[t.at[c]:t.at[c+1]] {
		if d := p.DistanceTo(cd.p); d < bestD {
			best, bestD = i, d
		}
	}
	return t.cands[int(t.at[c])+best].id, bestD, true
}

// ringNearest is Nearest by ring search: the query's own cell, then
// each ring of cells around it until no unvisited point can be nearer.
func (g *Grid) ringNearest(p Point) (id int, dist float64, ok bool) {
	cx, cy := g.col(p.X), g.row(p.Y)
	best := -1
	bestD := math.Inf(1)
	var ring []int32
	for r := 0; r <= max(g.cols, g.rows); r++ {
		// Once a candidate is found, one extra ring guarantees
		// correctness: anything farther than (r-1)*cellSize cannot
		// beat a point already within that bound.
		if best >= 0 && float64(r-1)*g.cellSize > bestD {
			break
		}
		ring = g.ringCells(cx, cy, r, ring[:0])
		for _, cell := range ring {
			for _, idx := range g.cells[cell] {
				d := p.DistanceTo(g.pts[idx])
				if d < bestD {
					bestD = d
					best = int(idx)
				}
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return g.ids[best], bestD, true
}

// buildTable computes every cell's nearest candidates. For a query q in
// cell C and any point x, d(q, x) is at most x's farthest-corner
// distance from C, so U, the least of those over all points, bounds q's
// nearest distance; and a point farther than U from C can be nearest to
// nothing in C. The candidates are therefore the points within U of C,
// in the ring search's visit order, so that a scan with the same
// distance and the same strict < keeps the ring search's tie rule.
//
// The build is local: it walks the rings around C in the ring search's
// order, collecting each point within the running U of C and lowering
// U by its farthest corner, and stops once a ring's lower bound,
// (k − 1)·cell, exceeds U. Within a ring it visits only the cells whose
// gap to C, in whole cells, is within U (clamped outliers lie beyond
// their cell). The running U only falls, so a final filter against U
// loses none, and a point beyond it cannot lower it. The comparisons
// run on squared distances with a relative slack of 1e-9, which absorbs
// rounding in the cell arithmetic: an extra candidate costs a query one
// distance and changes no answer.
func (g *Grid) buildTable() nearestTable {
	b := tableBuild{cellAt: make([]int32, 1, len(g.cells)+1), half: g.cellSize / 2}
	b.byCell = make([]candidate, 0, len(g.pts))
	for _, idxs := range g.cells {
		for _, idx := range idxs {
			b.byCell = append(b.byCell, candidate{g.pts[idx], g.ids[idx]})
		}
		b.cellAt = append(b.cellAt, int32(len(b.byCell)))
	}
	// About ten candidates a cell at one point a cell.
	t := nearestTable{at: make([]int32, 1, len(g.cells)+1), cands: make([]candidate, 0, 10*len(g.cells))}
	if len(g.pts) == 0 {
		t.at = make([]int32, len(g.cells)+1)
		return t
	}
	cell2 := g.cellSize * g.cellSize
	// reach returns how many cells off a ring's row (or column) can lie,
	// the row's own gap to C being gap cells, and still be within U:
	// -1 when none can.
	reach := func(gap int, u2 float64) int {
		room := u2/cell2 - float64(gap*gap)
		if room < 0 {
			return -1
		}
		return int(min(math.Sqrt(room), float64(len(g.cells)))) + 1
	}
	for cy := 0; cy < g.rows; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			// C's centre: |x − centre| ∓ half are a coordinate's
			// nearest and farthest reach to C along one axis.
			b.mx = g.bounds.MinX + (float64(cx)+0.5)*g.cellSize
			b.my = g.bounds.MinY + (float64(cy)+0.5)*g.cellSize
			b.u2 = math.Inf(1) // U², scaled by the slack
			b.cands, b.near = b.cands[:0], b.near[:0]
			b.scan(cy*g.cols + cx)
			for r := 1; r <= max(g.cols, g.rows) && float64((r-1)*(r-1))*cell2 <= b.u2; r++ {
				// A column's top then bottom cell, then a row's left
				// then right cell, as ringCells orders them.
				if w := min(reach(r-1, b.u2), r); w >= 0 {
					for x := max(cx-w, 0); x <= min(cx+w, g.cols-1); x++ {
						if cy-r >= 0 {
							b.scan((cy-r)*g.cols + x)
						}
						if cy+r < g.rows {
							b.scan((cy+r)*g.cols + x)
						}
					}
				}
				if w := min(reach(r-1, b.u2), r-1); w >= 0 {
					for y := max(cy-w, 0); y <= min(cy+w, g.rows-1); y++ {
						if cx-r >= 0 {
							b.scan(y*g.cols + cx - r)
						}
						if cx+r < g.cols {
							b.scan(y*g.cols + cx + r)
						}
					}
				}
			}
			for i, cd := range b.cands {
				if b.near[i] <= b.u2 {
					t.cands = append(t.cands, cd)
				}
			}
			t.at = append(t.at, int32(len(t.cands)))
		}
	}
	return t
}

// tableBuild is buildTable's state for one cell C: the points cell by
// cell, C's centre, half a cell, U² so far, and the points collected
// with their squared distances to C.
type tableBuild struct {
	byCell       []candidate
	cellAt       []int32 // cell c's points are byCell[cellAt[c]:cellAt[c+1]]
	mx, my, half float64
	u2           float64
	cands        []candidate
	near         []float64
}

// scan collects cell c's points within the running U of C, lowering U
// by each one's farthest corner.
func (b *tableBuild) scan(c int) {
	const slack = 1 + 1e-9
	u2 := b.u2
	for _, cd := range b.byCell[b.cellAt[c]:b.cellAt[c+1]] {
		ax, ay := math.Abs(cd.p.X-b.mx), math.Abs(cd.p.Y-b.my)
		dx, dy := positive(ax-b.half), positive(ay-b.half)
		if d2 := dx*dx + dy*dy; d2 <= u2 {
			fx, fy := ax+b.half, ay+b.half
			if f2 := (fx*fx + fy*fy) * slack; f2 < u2 {
				u2 = f2
			}
			b.cands = append(b.cands, cd)
			b.near = append(b.near, d2)
		}
	}
	b.u2 = u2
}

// positive returns x when it is positive and 0 otherwise, without a
// branch: x + |x| is 2x or 0 exactly.
func positive(x float64) float64 { return (x + math.Abs(x)) / 2 }

// ringCells appends to buf the cells forming the square ring at
// Chebyshev distance ring from (cx, cy), skipping out-of-range cells,
// in the order queries visit them: along x, each column's top cell then
// its bottom one; then along y, each row's left cell then its right.
func (g *Grid) ringCells(cx, cy, ring int, buf []int32) []int32 {
	if ring == 0 {
		return append(buf, int32(cy*g.cols+cx))
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := max(x0, 0); x <= min(x1, g.cols-1); x++ {
		if y0 >= 0 {
			buf = append(buf, int32(y0*g.cols+x))
		}
		if y1 < g.rows {
			buf = append(buf, int32(y1*g.cols+x))
		}
	}
	for y := max(y0+1, 0); y <= min(y1-1, g.rows-1); y++ {
		if x0 >= 0 {
			buf = append(buf, int32(y*g.cols+x0))
		}
		if x1 < g.cols {
			buf = append(buf, int32(y*g.cols+x1))
		}
	}
	return buf
}

// Neighbor is a query result: an indexed point's ID and its distance
// from the query location.
type Neighbor struct {
	ID       int
	Distance float64
}

// Within returns all indexed points at distance <= radius from p,
// sorted by ascending distance (ties by ID).
func (g *Grid) Within(p Point, radius float64) []Neighbor {
	if radius < 0 || len(g.ids) == 0 {
		return nil
	}
	var out []Neighbor
	g.forEachCellNear(p, radius, func(cell int) {
		for _, idx := range g.cells[cell] {
			d := p.DistanceTo(g.pts[idx])
			if d <= radius {
				out = append(out, Neighbor{ID: g.ids[idx], Distance: d})
			}
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (g *Grid) forEachCellNear(p Point, radius float64, fn func(cell int)) {
	// Both ends are clamped into the grid, as cellOf clamps points: a
	// disc wholly outside one side still reaches the boundary cells that
	// hold the outliers beyond it.
	x0, x1 := g.col(p.X-radius), g.col(p.X+radius)
	y0, y1 := g.row(p.Y-radius), g.row(p.Y+radius)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			fn(y*g.cols + x)
		}
	}
}

// Pair is an unordered pair of indexed point IDs with their distance.
type Pair struct {
	A, B     int
	Distance float64
}

// Pairs enumerates every unordered pair of indexed points whose
// distance is <= radius. Each pair is reported once with A and B in
// insertion order of the underlying points.
func (g *Grid) Pairs(radius float64) []Pair {
	if radius < 0 {
		return nil
	}
	var out []Pair
	for i := range g.pts {
		p := g.pts[i]
		g.forEachCellNear(p, radius, func(cell int) {
			for _, jdx := range g.cells[cell] {
				j := int(jdx)
				if j <= i {
					continue
				}
				d := p.DistanceTo(g.pts[j])
				if d <= radius {
					out = append(out, Pair{A: g.ids[i], B: g.ids[j], Distance: d})
				}
			}
		})
	}
	return out
}
