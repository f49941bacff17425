package geo

import (
	"fmt"
	"math"
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
type Grid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32 // cell -> point indexes
	ids      []int
	pts      []Point
}

// NewGrid creates an index over bounds with roughly cellSize-sized
// cells. cellSize must be positive and bounds must be valid with
// positive area.
func NewGrid(bounds Rect, cellSize float64) (*Grid, error) {
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: invalid grid bounds %+v", bounds)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: non-positive cell size %v", cellSize)
	}
	cols := int(math.Ceil(bounds.Width() / cellSize))
	rows := int(math.Ceil(bounds.Height() / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
	}, nil
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.ids) }

// Bounds returns the nominal bounds of the index.
func (g *Grid) Bounds() Rect { return g.bounds }

// Insert adds a point with the caller's identifier. IDs need not be
// unique or dense; they are returned verbatim by queries.
func (g *Grid) Insert(id int, p Point) {
	idx := int32(len(g.ids))
	g.ids = append(g.ids, id)
	g.pts = append(g.pts, p)
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], idx)
}

func (g *Grid) cellOf(p Point) int {
	cx := int((p.X - g.bounds.MinX) / g.cellSize)
	cy := int((p.Y - g.bounds.MinY) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Nearest returns the ID and distance of the indexed point closest to
// p. ok is false when the index is empty. Among points at the minimum
// distance the first one visited wins: the query's own cell first, then
// each ring of cells around it in forEachRingCell order, and insertion
// order only within one cell. Online ingest and offline slot contexts
// both resolve requests through it, so this rule is part of what makes
// their plans equal.
func (g *Grid) Nearest(p Point) (id int, dist float64, ok bool) {
	if len(g.ids) == 0 {
		return 0, 0, false
	}
	cx := int((p.X - g.bounds.MinX) / g.cellSize)
	cy := int((p.Y - g.bounds.MinY) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}

	best := -1
	bestD := math.Inf(1)
	maxRing := g.cols
	if g.rows > g.cols {
		maxRing = g.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is found, one extra ring guarantees
		// correctness: anything farther than (ring-1)*cellSize cannot
		// beat a point already within that bound.
		if best >= 0 && float64(ring-1)*g.cellSize > bestD {
			break
		}
		g.forEachRingCell(cx, cy, ring, func(cell int) {
			for _, idx := range g.cells[cell] {
				d := p.DistanceTo(g.pts[idx])
				if d < bestD {
					bestD = d
					best = int(idx)
				}
			}
		})
	}
	if best < 0 {
		return 0, 0, false
	}
	return g.ids[best], bestD, true
}

// forEachRingCell visits the cells forming the square ring at Chebyshev
// distance ring from (cx, cy), skipping out-of-range cells.
func (g *Grid) forEachRingCell(cx, cy, ring int, fn func(cell int)) {
	if ring == 0 {
		fn(cy*g.cols + cx)
		return
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := x0; x <= x1; x++ {
		if x < 0 || x >= g.cols {
			continue
		}
		if y0 >= 0 {
			fn(y0*g.cols + x)
		}
		if y1 < g.rows {
			fn(y1*g.cols + x)
		}
	}
	for y := y0 + 1; y <= y1-1; y++ {
		if y < 0 || y >= g.rows {
			continue
		}
		if x0 >= 0 {
			fn(y*g.cols + x0)
		}
		if x1 < g.cols {
			fn(y*g.cols + x1)
		}
	}
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
	x0 := int((p.X - radius - g.bounds.MinX) / g.cellSize)
	x1 := int((p.X + radius - g.bounds.MinX) / g.cellSize)
	y0 := int((p.Y - radius - g.bounds.MinY) / g.cellSize)
	y1 := int((p.Y + radius - g.bounds.MinY) / g.cellSize)
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= g.cols {
		x1 = g.cols - 1
	}
	if y1 >= g.rows {
		y1 = g.rows - 1
	}
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
