package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Sum(xs); got != 40 {
		t.Errorf("Sum() = %v, want 40", got)
	}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean() = %v, want 5", got)
	}
}

func TestDescriptiveEmpty(t *testing.T) {
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5} // deliberately unsorted
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.125, 1.5}, // interpolation
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 3 {
		t.Error("Quantile() mutated its input")
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(nil) = %v, want NaN", got)
	}
	if got := Quantile(xs, -0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(q<0) = %v, want NaN", got)
	}
	if got := Quantile(xs, 1.1); !math.IsNaN(got) {
		t.Errorf("Quantile(q>1) = %v, want NaN", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("Quantile(single) = %v, want 7", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median() = %v, want 2.5", got)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	if e.Len() != 4 {
		t.Errorf("Len() = %d, want 4", e.Len())
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := e.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %v, want NaN", got)
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("NewECDF(nil) succeeded, want error")
	}
}

func TestECDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Points(11)
	if len(pts) != 11 {
		t.Fatalf("Points(11) returned %d points", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 99 {
		t.Errorf("Points() endpoints = %v, %v; want 0 and 99", pts[0].X, pts[len(pts)-1].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P || pts[i].X < pts[i-1].X {
			t.Fatalf("Points() not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if got := e.Points(0); got != nil {
		t.Errorf("Points(0) = %v, want nil", got)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		size := int(n%50) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -30.0; x <= 30; x += 1.5 {
			p := e.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	counts, err := Histogram([]float64{0, 0.5, 1, 1.5, 2, 9, 10, -5, 15}, 0, 10, 5)
	if err != nil {
		t.Fatalf("Histogram: %v", err)
	}
	// Bins: [0,2) [2,4) [4,6) [6,8) [8,10]; out-of-range clamps.
	want := []int{5, 1, 0, 0, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	if _, err := Histogram(nil, 0, 10, 0); err == nil {
		t.Error("Histogram(nbins=0) succeeded, want error")
	}
	if _, err := Histogram(nil, 10, 0, 5); err == nil {
		t.Error("Histogram(hi<lo) succeeded, want error")
	}
}

func TestQuantileAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got := Quantile(xs, 0); got != sorted[0] {
			t.Fatalf("Quantile(0) = %v, want min %v", got, sorted[0])
		}
		if got := Quantile(xs, 1); got != sorted[n-1] {
			t.Fatalf("Quantile(1) = %v, want max %v", got, sorted[n-1])
		}
	}
}
