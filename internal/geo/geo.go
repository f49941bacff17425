// Package geo provides the planar geometry primitives used by the
// crowdsourced-CDN simulator: points on a local kilometre plane,
// rectangles, and a uniform-grid spatial index for nearest-neighbour
// and range queries.
//
// Following the paper, network latency between two devices is modelled
// as proportional to their geographic distance, so all "latency" values
// in this repository are kilometres on the plane.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the local planar projection, in kilometres.
type Point struct {
	X float64 // east, km
	Y float64 // north, km
}

// DistanceTo returns the Euclidean distance to q in kilometres.
func (p Point) DistanceTo(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{X: p.X + dx, Y: p.Y + dy}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle on the plane, in kilometres.
// MinX <= MaxX and MinY <= MaxY for a valid rectangle.
type Rect struct {
	MinX, MinY float64
	MaxX, MaxY float64
}

// Width returns the horizontal extent in kilometres.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent in kilometres.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area in square kilometres.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Diagonal returns the corner-to-corner distance in kilometres. The
// paper uses the evaluation rectangle's diagonal (~20 km for 17x11 km)
// as the access distance charged to requests served by the CDN origin.
func (r Rect) Diagonal() float64 {
	return math.Sqrt(r.Width()*r.Width() + r.Height()*r.Height())
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest location inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Valid reports whether the rectangle has non-negative extents.
func (r Rect) Valid() bool { return r.MaxX >= r.MinX && r.MaxY >= r.MinY }
