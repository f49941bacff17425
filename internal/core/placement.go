package core

import (
	"math"
	"slices"

	"repro/internal/trace"
)

// PlacementRuns is a placement as sorted runs in one span: hotspot h's
// video ids, strictly ascending, are IDs[Off[h]:Off[h+1]]. It is the
// one form of a placement from the round that fills it to the
// simulator that evaluates it and the frontend that serves it.
type PlacementRuns struct {
	IDs []int32
	Off []int
}

// Rows returns the number of hotspot rows.
func (p *PlacementRuns) Rows() int { return max(len(p.Off)-1, 0) }

// Row returns hotspot h's video ids in ascending order.
func (p *PlacementRuns) Row(h int) []int32 { return p.IDs[p.Off[h]:p.Off[h+1]] }

// Len returns the number of videos hotspot h places.
func (p *PlacementRuns) Len(h int) int { return p.Off[h+1] - p.Off[h] }

// AppendRow appends the next hotspot's row; ids must be strictly
// ascending.
func (p *PlacementRuns) AppendRow(ids []int32) {
	if len(p.Off) == 0 {
		p.Off = append(p.Off, 0)
	}
	p.IDs = append(p.IDs, ids...)
	p.Off = append(p.Off, len(p.IDs))
}

// Equal reports whether p and q place the same videos at the same
// hotspots.
func (p *PlacementRuns) Equal(q *PlacementRuns) bool {
	if p.Rows() != q.Rows() {
		return false
	}
	for h := 0; h < p.Rows(); h++ {
		if !slices.Equal(p.Row(h), q.Row(h)) {
			return false
		}
	}
	return true
}

// Contains reports whether hotspot h places video v (false for a
// hotspot outside the rows).
func (p *PlacementRuns) Contains(h, v int) bool { return p.find(h, v) >= 0 }

// find returns the position in IDs of video v in hotspot h's row, or
// -1 when the row lacks it or h is not a row. It is the /redirect
// path's probe: a binary search whose one data-dependent step compiles
// to a conditional move, because slices.BinarySearch's branches
// mispredict on random probes and cost it about 1.7× as much on rows
// of a few dozen ids.
func (p *PlacementRuns) find(h, v int) int32 {
	if uint(h) >= uint(p.Rows()) || v < math.MinInt32 || v > math.MaxInt32 {
		return -1
	}
	row, x := p.Row(h), int32(v)
	if len(row) == 0 {
		return -1
	}
	// Invariant: row[lo] is the last id <= x, if any id is.
	lo := 0
	for n := len(row); n > 1; {
		half := n / 2
		if row[lo+half] <= x {
			lo += half
		}
		n -= half
	}
	if row[lo] != x {
		return -1
	}
	return int32(p.Off[h] + lo)
}

// Probes are (hotspot, video) lookups ordered for Locate: by hotspot,
// then by video, so that each placement row is merge-walked once.
type Probes struct {
	n      int
	rowAt  []int32 // hotspot h's probes are sorted[rowAt[h]:rowAt[h+1]]
	sorted []probe
}

type probe struct{ r, v int32 }

// NewProbes orders the probes (hotspot[r], video[r]) over rows hotspots
// by counting passes, video then hotspot. A hotspot outside [0, rows)
// — a CDN target, say — is a probe that finds nothing. Videos must lie
// in [0, numVideos).
func NewProbes(hotspot []int, video []trace.VideoID, rows, numVideos int) *Probes {
	at := make([]int32, numVideos+1)
	for _, v := range video {
		at[v+1]++
	}
	for v := 0; v < numVideos; v++ {
		at[v+1] += at[v]
	}
	byVideo := make([]int32, len(video))
	for r, v := range video {
		byVideo[at[v]] = int32(r)
		at[v]++
	}
	pr := &Probes{n: len(hotspot), rowAt: make([]int32, rows+1)}
	for _, h := range hotspot {
		if uint(h) < uint(rows) {
			pr.rowAt[h+1]++
		}
	}
	for h := 0; h < rows; h++ {
		pr.rowAt[h+1] += pr.rowAt[h]
	}
	pr.sorted = make([]probe, pr.rowAt[rows])
	next := slices.Clone(pr.rowAt[:rows])
	for _, r := range byVideo {
		if h := hotspot[r]; uint(h) < uint(rows) {
			pr.sorted[next[h]] = probe{r, int32(video[r])}
			next[h]++
		}
	}
	return pr
}

// Locate returns, for each probe r, the position in IDs of its video in
// its hotspot's row, or -1 when the row lacks it or the probe's hotspot
// is not a row. The probes must have been ordered over p.Rows() rows.
// It costs one merge walk of each row, not a binary search per probe
// into whichever row comes next.
func (p *PlacementRuns) Locate(pr *Probes) []int32 {
	out := make([]int32, pr.n)
	for r := range out {
		out[r] = -1
	}
	for h := 0; h+1 < len(pr.rowAt); h++ {
		ids, i := p.Row(h), 0
		for _, q := range pr.sorted[pr.rowAt[h]:pr.rowAt[h+1]] {
			for i < len(ids) && ids[i] < q.v {
				i++
			}
			if i < len(ids) && ids[i] == q.v {
				out[q.r] = int32(p.Off[h] + i)
			}
		}
	}
	return out
}

// WithAdded returns p with add[h]'s videos placed at hotspot h too,
// each row rebuilt once. add[h] may be in any order and is sorted in
// place; its videos must be distinct and absent from row h. A nil or
// short add leaves the remaining rows as they are.
func (p *PlacementRuns) WithAdded(add [][]int32) PlacementRuns {
	extra := 0
	for _, a := range add {
		extra += len(a)
	}
	out := PlacementRuns{IDs: make([]int32, 0, len(p.IDs)+extra), Off: make([]int, 1, p.Rows()+1)}
	for h := 0; h < p.Rows(); h++ {
		var a []int32
		if h < len(add) {
			a = add[h]
			slices.Sort(a)
		}
		out.IDs = mergeIDs(out.IDs, p.Row(h), a)
		out.Off = append(out.Off, len(out.IDs))
	}
	return out
}

// mergeIDs appends the union of the ascending runs a and b to dst.
func mergeIDs(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}
