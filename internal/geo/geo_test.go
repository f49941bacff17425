package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPointDistanceTo(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.DistanceTo(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("DistanceTo() = %v, want %v", got, tt.want)
			}
			if got := tt.q.DistanceTo(tt.p); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("DistanceTo() reversed = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPointDistanceSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{X: math.Mod(ax, 1e6), Y: math.Mod(ay, 1e6)}
		b := Point{X: math.Mod(bx, 1e6), Y: math.Mod(by, 1e6)}
		return almostEqual(a.DistanceTo(b), b.DistanceTo(a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointAdd(t *testing.T) {
	p := Point{1, 2}.Add(3, -1)
	if p.X != 4 || p.Y != 1 {
		t.Errorf("Add() = %v, want (4, 1)", p)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 3}
	if got := r.Width(); got != 4 {
		t.Errorf("Width() = %v, want 4", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height() = %v, want 2", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area() = %v, want 8", got)
	}
	if got := r.Diagonal(); !almostEqual(got, math.Sqrt(20), 1e-12) {
		t.Errorf("Diagonal() = %v, want sqrt(20)", got)
	}
	if c := r.Center(); c.X != 3 || c.Y != 2 {
		t.Errorf("Center() = %v, want (3, 2)", c)
	}
	if !r.Valid() {
		t.Error("Valid() = false for a valid rect")
	}
	if (Rect{MinX: 2, MaxX: 1}).Valid() {
		t.Error("Valid() = true for an inverted rect")
	}
}

func TestRectContainsAndClamp(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	tests := []struct {
		name string
		p    Point
		in   bool
		want Point
	}{
		{"inside", Point{5, 2}, true, Point{5, 2}},
		{"on boundary", Point{10, 5}, true, Point{10, 5}},
		{"left of", Point{-1, 2}, false, Point{0, 2}},
		{"above", Point{5, 7}, false, Point{5, 5}},
		{"both out", Point{12, -3}, false, Point{10, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.in {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.in)
			}
			if got := r.Clamp(tt.p); got != tt.want {
				t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}
