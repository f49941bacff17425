package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func testBounds() Rect { return Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10} }

func newTestGrid(t *testing.T, cell float64) *Grid {
	t.Helper()
	g, err := NewGrid(testBounds(), cell)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
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
			if _, err := NewGrid(tt.bounds, tt.cell); err == nil {
				t.Error("NewGrid() succeeded, want error")
			}
		})
	}
}

func TestGridNearestEmpty(t *testing.T) {
	g := newTestGrid(t, 1)
	if _, _, ok := g.Nearest(Point{5, 5}); ok {
		t.Error("Nearest() on empty grid returned ok")
	}
}

func TestGridNearestSingle(t *testing.T) {
	g := newTestGrid(t, 1)
	g.Insert(42, Point{3, 3})
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
		g := newTestGrid(t, 0.8)
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			// Include occasional out-of-bounds points.
			pts[i] = Point{X: rng.Float64()*14 - 2, Y: rng.Float64()*14 - 2}
			g.Insert(i, pts[i])
		}
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
		g := newTestGrid(t, 1.3)
		n := rng.Intn(80)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			g.Insert(i, pts[i])
		}
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
	g := newTestGrid(t, 1)
	g.Insert(1, Point{5, 5})
	if got := g.Within(Point{5, 5}, -1); got != nil {
		t.Errorf("Within(negative radius) = %v, want nil", got)
	}
}

func TestGridPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := newTestGrid(t, 1.1)
		n := rng.Intn(50)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			g.Insert(i, pts[i])
		}
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
	g := newTestGrid(t, 1)
	if g.Len() != 0 {
		t.Errorf("Len() = %d, want 0", g.Len())
	}
	g.Insert(1, Point{1, 1})
	g.Insert(2, Point{2, 2})
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
	g := newTestGrid(t, 1)
	g.Insert(1, Point{4.75, 5.5}) // cell (4, 5), inserted first
	g.Insert(2, Point{5.75, 5.5}) // cell (5, 5), the query's
	q := Point{5.25, 5.5}
	if a, b := q.DistanceTo(Point{4.75, 5.5}), q.DistanceTo(Point{5.75, 5.5}); a != b {
		t.Fatalf("test points are not equidistant: %v vs %v", a, b)
	}
	if id, d, ok := g.Nearest(q); !ok || id != 2 || d != 0.5 {
		t.Errorf("Nearest() = (%d, %v, %v), want the query cell's point 2 at 0.5", id, d, ok)
	}
}

func TestGridDuplicateAndCoincidentPoints(t *testing.T) {
	g := newTestGrid(t, 1)
	g.Insert(1, Point{5, 5})
	g.Insert(2, Point{5, 5})
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
