package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func testBounds() Rect { return Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10} }

// newTestGrid indexes pts[i] under ids[i] over testBounds in cells of
// side cell.
func newTestGrid(t *testing.T, cell float64, ids []int, pts []Point) *Grid {
	t.Helper()
	g, err := newGrid(testBounds(), cell)
	if err != nil {
		t.Fatalf("newGrid: %v", err)
	}
	g.fill(ids, pts)
	return g
}

// seq returns the ids 0, 1, …, n-1.
func seq(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestNewGridErrors(t *testing.T) {
	tests := []struct {
		name   string
		bounds Rect
		cell   float64
	}{
		{"zero cell", testBounds(), 0},
		{"negative cell", testBounds(), -1},
		{"inverted bounds", Rect{MinX: 5, MaxX: 1, MinY: 0, MaxY: 1}, 1},
		{"zero area", Rect{MinX: 0, MaxX: 0, MinY: 0, MaxY: 5}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := newGrid(tt.bounds, tt.cell); err == nil {
				t.Error("newGrid() succeeded, want error")
			}
		})
	}
}

func TestGridNearestEmpty(t *testing.T) {
	g := newTestGrid(t, 1, nil, nil)
	if _, _, ok := g.Nearest(Point{5, 5}); ok {
		t.Error("Nearest() on empty grid returned ok")
	}
}

func TestGridNearestSingle(t *testing.T) {
	g := newTestGrid(t, 1, []int{42}, []Point{{3, 3}})
	id, d, ok := g.Nearest(Point{0, 0})
	if !ok || id != 42 {
		t.Fatalf("Nearest() = (%d, %v, %v), want id 42", id, d, ok)
	}
	if want := math.Sqrt(18); !almostEqual(d, want, 1e-12) {
		t.Errorf("Nearest() distance = %v, want %v", d, want)
	}
}

// bruteNearest is the reference implementation.
func bruteNearest(pts []Point, q Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if d := q.DistanceTo(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			// Include occasional out-of-bounds points.
			pts[i] = Point{X: rng.Float64()*14 - 2, Y: rng.Float64()*14 - 2}
		}
		g := newTestGrid(t, 0.8, seq(n), pts)
		for q := 0; q < 20; q++ {
			query := Point{X: rng.Float64()*14 - 2, Y: rng.Float64()*14 - 2}
			_, wantD := bruteNearest(pts, query)
			id, gotD, ok := g.Nearest(query)
			if !ok {
				t.Fatalf("trial %d: Nearest() not ok", trial)
			}
			if !almostEqual(gotD, wantD, 1e-9) {
				t.Fatalf("trial %d query %v: Nearest() distance %v, want %v (got id %d)",
					trial, query, gotD, wantD, id)
			}
		}
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(80)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		g := newTestGrid(t, 1.3, seq(n), pts)
		query := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		radius := rng.Float64() * 4
		var want []int
		for i, p := range pts {
			if query.DistanceTo(p) <= radius {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		got := g.Within(query, radius)
		gotIDs := make([]int, len(got))
		for i, nb := range got {
			gotIDs[i] = nb.ID
		}
		sort.Ints(gotIDs)
		if len(gotIDs) != len(want) {
			t.Fatalf("trial %d: Within() returned %d, want %d", trial, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("trial %d: Within() ids %v, want %v", trial, gotIDs, want)
			}
		}
		// Sorted by distance.
		for i := 1; i < len(got); i++ {
			if got[i].Distance < got[i-1].Distance {
				t.Fatalf("trial %d: Within() not sorted by distance", trial)
			}
		}
	}
}

func TestGridWithinNegativeRadius(t *testing.T) {
	g := newTestGrid(t, 1, []int{1}, []Point{{5, 5}})
	if got := g.Within(Point{5, 5}, -1); got != nil {
		t.Errorf("Within(negative radius) = %v, want nil", got)
	}
}

func TestGridPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		}
		g := newTestGrid(t, 1.1, seq(n), pts)
		radius := rng.Float64() * 3
		want := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pts[i].DistanceTo(pts[j]) <= radius {
					want[[2]int{i, j}] = true
				}
			}
		}
		got := g.Pairs(radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Pairs() returned %d, want %d", trial, len(got), len(want))
		}
		for _, p := range got {
			a, b := p.A, p.B
			if a > b {
				a, b = b, a
			}
			if !want[[2]int{a, b}] {
				t.Fatalf("trial %d: unexpected pair (%d, %d)", trial, p.A, p.B)
			}
		}
	}
}

func TestGridLenAndBounds(t *testing.T) {
	if g := newTestGrid(t, 1, nil, nil); g.Len() != 0 {
		t.Errorf("Len() = %d, want 0", g.Len())
	}
	g := newTestGrid(t, 1, []int{1, 2}, []Point{{1, 1}, {2, 2}})
	if g.Len() != 2 {
		t.Errorf("Len() = %d, want 2", g.Len())
	}
	if g.Bounds() != testBounds() {
		t.Errorf("Bounds() = %+v, want %+v", g.Bounds(), testBounds())
	}
}

// TestGridNearestTieVisitOrder pins Nearest's tie rule: of two points
// equidistant from the query, the one in the query's own cell wins even
// though the other was inserted first — ties go by ring-visit order, not
// insertion order.
func TestGridNearestTieVisitOrder(t *testing.T) {
	g := newTestGrid(t, 1, []int{1, 2}, []Point{
		{4.75, 5.5}, // cell (4, 5), inserted first
		{5.75, 5.5}, // cell (5, 5), the query's
	})
	q := Point{5.25, 5.5}
	if a, b := q.DistanceTo(Point{4.75, 5.5}), q.DistanceTo(Point{5.75, 5.5}); a != b {
		t.Fatalf("test points are not equidistant: %v vs %v", a, b)
	}
	if id, d, ok := g.Nearest(q); !ok || id != 2 || d != 0.5 {
		t.Errorf("Nearest() = (%d, %v, %v), want the query cell's point 2 at 0.5", id, d, ok)
	}
}

func TestGridDuplicateAndCoincidentPoints(t *testing.T) {
	g := newTestGrid(t, 1, []int{1, 2}, []Point{{5, 5}, {5, 5}})
	id, d, ok := g.Nearest(Point{5, 5})
	if !ok || d != 0 {
		t.Fatalf("Nearest() = (%d, %v, %v), want distance 0", id, d, ok)
	}
	if id != 1 {
		t.Errorf("Nearest() tie-break id = %d, want 1 (insertion order within a cell)", id)
	}
	nbrs := g.Within(Point{5, 5}, 0)
	if len(nbrs) != 2 {
		t.Errorf("Within(r=0) = %d results, want 2", len(nbrs))
	}
}

// TestGridOutliersWithinAndPairs holds Within and Pairs to points
// outside the bounds: a disc lying wholly beyond one side must still
// reach the boundary cells the outliers are clamped into.
func TestGridOutliersWithinAndPairs(t *testing.T) {
	g := newTestGrid(t, 1, []int{1}, []Point{{-5, 5}})
	if got := g.Within(Point{-5.1, 5}, 0.5); len(got) != 1 || got[0].ID != 1 || !almostEqual(got[0].Distance, 0.1, 1e-12) {
		t.Errorf("Within((-5.1, 5), 0.5) = %v, want point 1 at 0.1", got)
	}
	g = newTestGrid(t, 1, []int{1, 2}, []Point{{-5, 5}, {-5.2, 5}})
	if got := g.Pairs(0.5); len(got) != 1 || got[0].A != 1 || got[0].B != 2 {
		t.Errorf("Pairs(0.5) = %v, want the pair (1, 2)", got)
	}
	if id, d, ok := g.Nearest(Point{-5.1, 5}); !ok || id != 1 || !almostEqual(d, 0.1, 1e-12) {
		t.Errorf("Nearest((-5.1, 5)) = (%d, %v, %v), want point 1 at 0.1", id, d, ok)
	}
	// Beyond each side and each corner.
	for _, p := range []Point{{15, 5}, {5, -7}, {5, 13}, {-3, -3}, {12, 14}} {
		g := newTestGrid(t, 1, []int{7}, []Point{p})
		if got := g.Within(p.Add(0.1, 0), 0.2); len(got) != 1 || got[0].ID != 7 {
			t.Errorf("Within near outlier %v = %v, want point 7", p, got)
		}
	}
}

func TestNewIndex(t *testing.T) {
	if _, err := NewIndex(testBounds(), []int{1}, nil); err == nil {
		t.Error("NewIndex with mismatched ids and points succeeded")
	}
	if _, err := NewIndex(Rect{MaxX: 1}, nil, nil); err == nil {
		t.Error("NewIndex over zero-area bounds succeeded")
	}
	empty, err := NewIndex(testBounds(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := empty.Nearest(Point{1, 1}); ok {
		t.Error("Nearest on an empty index returned ok")
	}
	g, err := NewIndex(testBounds(), []int{10, 20, 30}, []Point{{1, 1}, {9, 9}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || len(g.table.at) != len(g.cells)+1 {
		t.Fatalf("NewIndex: %d points, table of %d offsets", g.Len(), len(g.table.at))
	}
	if id, _, _ := g.Nearest(Point{6, 6}); id != 30 {
		t.Errorf("Nearest((6, 6)) = %d, want 30", id)
	}
	odd := g.Subset(func(id int) bool { return id != 30 })
	if odd.Len() != 2 || odd.cellSize != g.cellSize || len(odd.table.at) != len(odd.cells)+1 {
		t.Fatalf("Subset: %d points, cell %v (want %v)", odd.Len(), odd.cellSize, g.cellSize)
	}
	if id, _, _ := odd.Nearest(Point{6, 6}); id != 20 {
		t.Errorf("Subset's Nearest((6, 6)) = %d, want 20", id)
	}
}

// TestGridNearestConcurrent runs Nearest from many goroutines on one
// index, the ingest handlers' pattern; the race detector checks it.
func TestGridNearestConcurrent(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{X: float64(i%10) + 0.5, Y: float64(i/10) + 0.5}
	}
	g := newTestGrid(t, 1, seq(len(pts)), pts)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				q := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
				if _, wantD := bruteNearest(g.pts, q); !almostEqual(wantD, mustNearest(t, g, q), 0) {
					t.Errorf("concurrent Nearest(%v) disagrees with brute force", q)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func mustNearest(t *testing.T, g *Grid, q Point) float64 {
	_, d, ok := g.Nearest(q)
	if !ok {
		t.Errorf("Nearest(%v) not ok", q)
	}
	return d
}

// FuzzGridNearest holds the candidate table to the ring search it
// replaces on point sets with duplicates, points on cell edges, empty
// cells and outliers: an in-bounds query must get the ring search's id
// and distance exactly, and every query a brute-force minimum distance.
func FuzzGridNearest(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(7), false)
	f.Add(int64(2), uint8(3), uint8(2), true)
	f.Add(int64(3), uint8(90), uint8(13), true)
	f.Add(int64(4), uint8(1), uint8(40), false)
	f.Fuzz(func(t *testing.T, seed int64, n, cellTenths uint8, grid bool) {
		rng := rand.New(rand.NewSource(seed))
		cell := 0.2 + float64(cellTenths%40)/10
		count := 1 + int(n)%120
		var pts []Point
		coord := func() float64 {
			switch k := rng.Intn(10); {
			case grid || k == 0: // on a cell edge or a lattice point
				return float64(rng.Intn(13)-1) * cell
			case k == 1: // outside the bounds
				return rng.Float64()*30 - 10
			default: // clustered, leaving cells empty
				return 2 + rng.Float64()*3
			}
		}
		for i := 0; i < count; i++ {
			p := Point{X: coord(), Y: coord()}
			if i > 0 && rng.Intn(8) == 0 {
				p = pts[rng.Intn(len(pts))] // a duplicate
			}
			pts = append(pts, p)
		}
		g := newTestGrid(t, cell, seq(count), pts)
		for q := 0; q < 200; q++ {
			query := Point{X: coord(), Y: coord()}
			if q%3 == 0 {
				query = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
			id, d, ok := g.Nearest(query)
			rid, rd, rok := g.ringNearest(query)
			if !ok || !rok {
				t.Fatalf("query %v: not ok", query)
			}
			if g.bounds.Contains(query) && (id != rid || d != rd) {
				t.Fatalf("query %v: table gives (%d, %v), ring search (%d, %v)", query, id, d, rid, rd)
			}
			if _, want := bruteNearest(pts, query); d != want || query.DistanceTo(pts[id]) != d {
				t.Fatalf("query %v: got (%d, %v), brute-force minimum %v", query, id, d, want)
			}
		}
	})
}
