// Package geom provides the planar geometric primitives used throughout
// DITA: points, minimum bounding rectangles (MBRs), and the distance
// predicates the paper's filters are built on (point-to-point Euclidean
// distance, point-to-MBR MinDist, MBR expansion and coverage).
//
// Trajectories in DITA are sequences of 2-dimensional points
// (latitude, longitude); see Definition 2.1 of the paper. The package keeps
// everything in float64 and is allocation-free on the hot paths.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane. The paper stores (latitude, longitude);
// we use X, Y throughout and leave the interpretation to the caller.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// SqDist returns the squared Euclidean distance between p and q. It avoids
// the square root for comparison-only callers.
func (p Point) SqDist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// MBR is a minimum bounding rectangle, closed on all sides. The zero value
// is not a valid rectangle; use EmptyMBR or NewMBR.
type MBR struct {
	Min, Max Point
}

// EmptyMBR returns the identity element for Extend/Union: a rectangle that
// contains nothing and unions to its argument.
func EmptyMBR() MBR {
	inf := math.Inf(1)
	return MBR{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// NewMBR returns the MBR of a single point.
func NewMBR(p Point) MBR { return MBR{Min: p, Max: p} }

// MBROf returns the MBR covering all given points. It returns EmptyMBR for
// an empty slice.
func MBROf(pts []Point) MBR { return EmptyMBR().ExtendAll(pts) }

// ExtendAll returns the smallest MBR covering m and every given point. It
// is the loop behind every pass over stored points (per-trajectory MBRs,
// trie envelopes), so it compares in place instead of going through
// Extend's math.Min/Max calls (a NaN coordinate is skipped, not propagated).
func (m MBR) ExtendAll(pts []Point) MBR {
	for _, p := range pts {
		if p.X < m.Min.X {
			m.Min.X = p.X
		}
		if p.X > m.Max.X {
			m.Max.X = p.X
		}
		if p.Y < m.Min.Y {
			m.Min.Y = p.Y
		}
		if p.Y > m.Max.Y {
			m.Max.Y = p.Y
		}
	}
	return m
}

// IsEmpty reports whether the rectangle contains no points.
func (m MBR) IsEmpty() bool { return m.Min.X > m.Max.X || m.Min.Y > m.Max.Y }

// Extend returns the smallest MBR covering both m and p.
func (m MBR) Extend(p Point) MBR {
	return MBR{
		Min: Point{math.Min(m.Min.X, p.X), math.Min(m.Min.Y, p.Y)},
		Max: Point{math.Max(m.Max.X, p.X), math.Max(m.Max.Y, p.Y)},
	}
}

// Union returns the smallest MBR covering both rectangles.
func (m MBR) Union(o MBR) MBR {
	if m.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return m
	}
	return MBR{
		Min: Point{math.Min(m.Min.X, o.Min.X), math.Min(m.Min.Y, o.Min.Y)},
		Max: Point{math.Max(m.Max.X, o.Max.X), math.Max(m.Max.Y, o.Max.Y)},
	}
}

// Contains reports whether p lies inside the (closed) rectangle.
func (m MBR) Contains(p Point) bool {
	return p.X >= m.Min.X && p.X <= m.Max.X && p.Y >= m.Min.Y && p.Y <= m.Max.Y
}

// Covers reports whether every point of o lies inside m. An empty o is
// covered by anything; an empty m covers nothing but an empty o.
func (m MBR) Covers(o MBR) bool {
	if o.IsEmpty() {
		return true
	}
	return m.Contains(o.Min) && m.Contains(o.Max)
}

// Intersects reports whether the two rectangles share at least one point.
func (m MBR) Intersects(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	return m.Min.X <= o.Max.X && o.Min.X <= m.Max.X &&
		m.Min.Y <= o.Max.Y && o.Min.Y <= m.Max.Y
}

// Expand grows the rectangle by r on every side. This is the paper's
// EMBR_{Q,τ} construction (Section 5.3.3, Lemma 5.4). Expanding an empty
// rectangle yields an empty rectangle.
func (m MBR) Expand(r float64) MBR {
	if m.IsEmpty() {
		return m
	}
	return MBR{
		Min: Point{m.Min.X - r, m.Min.Y - r},
		Max: Point{m.Max.X + r, m.Max.Y + r},
	}
}

// MinDist returns the minimum Euclidean distance from p to the rectangle:
// zero when p is inside, otherwise the distance to the nearest side or
// corner. This is MinDist(q, MBR) in Section 4.2.2 and satisfies
// MinDist(p, m) <= p.Dist(x) for every x in m.
func (m MBR) MinDist(p Point) float64 {
	if m.IsEmpty() {
		return math.Inf(1)
	}
	// Branches, not math.Max: the same bits, and this is the inner loop of
	// every trie bound.
	var dx, dy float64
	if p.X < m.Min.X {
		dx = m.Min.X - p.X
	} else if p.X > m.Max.X {
		dx = p.X - m.Max.X
	}
	if p.Y < m.Min.Y {
		dy = m.Min.Y - p.Y
	} else if p.Y > m.Max.Y {
		dy = p.Y - m.Max.Y
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// MinDistMBR returns the minimum distance between any pair of points drawn
// from the two rectangles (zero when they intersect).
func (m MBR) MinDistMBR(o MBR) float64 {
	if m.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(math.Max(o.Min.X-m.Max.X, 0), m.Min.X-o.Max.X)
	dy := math.Max(math.Max(o.Min.Y-m.Max.Y, 0), m.Min.Y-o.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDist returns the maximum distance from p to any point of the rectangle
// (the distance to the farthest corner). Useful as an upper bound.
func (m MBR) MaxDist(p Point) float64 {
	if m.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(math.Abs(p.X-m.Min.X), math.Abs(p.X-m.Max.X))
	dy := math.Max(math.Abs(p.Y-m.Min.Y), math.Abs(p.Y-m.Max.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

// Center returns the rectangle's center point.
func (m MBR) Center() Point {
	return Point{(m.Min.X + m.Max.X) / 2, (m.Min.Y + m.Max.Y) / 2}
}

// Area returns the rectangle's area; zero for empty or degenerate
// rectangles.
func (m MBR) Area() float64 {
	if m.IsEmpty() {
		return 0
	}
	return (m.Max.X - m.Min.X) * (m.Max.Y - m.Min.Y)
}

// Margin returns half the rectangle's perimeter (the STR/R*-tree "margin"
// metric).
func (m MBR) Margin() float64 {
	if m.IsEmpty() {
		return 0
	}
	return (m.Max.X - m.Min.X) + (m.Max.Y - m.Min.Y)
}

// String implements fmt.Stringer in the paper's [(minx,miny), (maxx,maxy)]
// notation.
func (m MBR) String() string {
	return fmt.Sprintf("[(%g, %g), (%g, %g)]", m.Min.X, m.Min.Y, m.Max.X, m.Max.Y)
}
