package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func randomSet(rng *rand.Rand, universe, size int) Set {
	s := make(Set)
	for k := 0; k < size; k++ {
		s.Add(rng.Intn(universe))
	}
	return s
}

// checkMatrix requires DistanceMatrix(sets) to equal the map kernel
// JaccardDistance on every cell — float64 ==, not a tolerance: both
// divide the same two integers — with a zero diagonal, and to be
// reflect.DeepEqual across worker counts.
func checkMatrix(t *testing.T, name string, sets []Set) {
	t.Helper()
	serial := DistanceMatrix(sets, 1)
	if len(serial) != len(sets) {
		t.Fatalf("%s: %d rows, want %d", name, len(serial), len(sets))
	}
	for i := range sets {
		if len(serial[i]) != len(sets) {
			t.Fatalf("%s: row %d has %d cells, want %d", name, i, len(serial[i]), len(sets))
		}
		for j := range sets {
			want := JaccardDistance(sets[i], sets[j])
			if i == j {
				want = 0
			}
			if serial[i][j] != want {
				t.Fatalf("%s: d[%d][%d] = %v, reference %v", name, i, j, serial[i][j], want)
			}
		}
	}
	for _, workers := range []int{2, 4, 8} {
		if got := DistanceMatrix(sets, workers); !reflect.DeepEqual(serial, got) {
			t.Fatalf("%s: workers=%d differs from serial", name, workers)
		}
	}
}

// TestDistanceMatrixKernelAgreement is the exact differential of the
// inverted-index kernel against the map reference over seeded random
// families that cover its regimes: small universes where most pairs
// share something, large ones where few do, empty sets mixed in,
// negative ids, and a shifted universe wider than any packed layout.
func TestDistanceMatrixKernelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 240; trial++ {
		universe := 1 + rng.Intn(5000)
		if trial%3 == 0 {
			universe = 1 + rng.Intn(40)
		}
		offset := 0
		switch trial % 4 {
		case 1:
			offset = -universe / 2
		case 2:
			offset = 1 << 40
		}
		sets := make([]Set, rng.Intn(48))
		for i := range sets {
			sets[i] = make(Set)
			if rng.Intn(6) == 0 {
				continue
			}
			for id := range randomSet(rng, universe, rng.Intn(60)) {
				sets[i].Add(offset + id*(1+trial%5))
			}
		}
		checkMatrix(t, fmt.Sprintf("trial %d", trial), sets)
	}
}

// TestDistanceRunsMatchJaccard holds the runs kernels to the map
// kernel: the level of every cell of RankSpan.Fill, at both rank
// widths, with the pair keys collected both ways, and every cell of the
// []Set adapter == JaccardDistance (0 on the
// diagonal) at workers 1, 2 and 7, each span's Levels exactly the
// distances its cells take plus 0 and 1, and JaccardRuns on every
// ordered pair of sorted runs == Jaccard, on
// seeded families of int32 runs whose ids reach both ends of the range,
// with empty runs mixed in and fixed cases for two empty sets (Jd 0,
// similarity 1), an empty set against a non-empty one (Jd 1), and
// identical and disjoint sets.
func TestDistanceRunsMatchJaccard(t *testing.T) {
	families := [][][]int32{
		{{}, {}},
		{{}, {0}},
		{{3, 1, 2}, {2, 3, 1}, {4, 5}},
		{{0, math.MaxInt32}, {math.MaxInt32}, {0}, {}},
		{{math.MinInt32, -1, 0, math.MaxInt32}, {math.MaxInt32, math.MinInt32}, {-1}},
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		universe := 1 + rng.Intn(300)
		runs := make([][]int32, rng.Intn(40))
		for i := range runs {
			if rng.Intn(6) == 0 {
				continue
			}
			for id := range randomSet(rng, universe, rng.Intn(30)) {
				v := int32(id)
				switch trial % 3 {
				case 1:
					v = math.MaxInt32 - int32(id) // the top of the range
				case 2:
					v = int32(id) * (math.MaxInt32 / int32(universe)) // spread over all of it
				}
				runs[i] = append(runs[i], v)
			}
		}
		families = append(families, runs)
	}
	for f, runs := range families {
		n := len(runs)
		sets := make([]Set, n)
		at := []int32{0}
		var ids []int32
		for i, run := range runs {
			sets[i] = make(Set)
			for _, id := range run {
				sets[i].Add(int(id))
			}
			ids = append(ids, run...)
			at = append(at, int32(len(ids)))
		}
		sorted := make([][]int32, n)
		for i, run := range runs {
			sorted[i] = slices.Clone(run)
			slices.Sort(sorted[i])
		}
		for i, a := range sorted {
			for j, b := range sorted {
				if got, want := JaccardRuns(a, b), Jaccard(sets[i], sets[j]); got != want {
					t.Fatalf("family %d: JaccardRuns(%v, %v) = %v, reference %v", f, a, b, got, want)
				}
			}
		}
		for _, workers := range []int{1, 2, 7} {
			fromSets := make([]float64, n*n)
			FillDistanceMatrix(fromSets, sets, workers)
			for _, dense := range []bool{true, false} {
				restore := forceKeys(dense)
				var narrow RankSpan
				wide := RankSpan{Wide: []uint32{}} // a span that has widened once
				narrow.Fill(ids, at, workers)
				wide.Fill(ids, at, workers)
				restore()
				if narrow.Wide != nil || len(wide.Wide) != n*n || wide.Narrow != nil {
					t.Fatalf("family %d: spans of %d and %d narrow cells, %d and %d wide", f, len(narrow.Narrow), len(wide.Narrow), len(narrow.Wide), len(wide.Wide))
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						want := JaccardDistance(sets[i], sets[j])
						if i == j {
							want = 0
						}
						c := i*n + j
						if got := narrow.Levels[narrow.Narrow[c]]; got != want || wide.Levels[wide.Wide[c]] != want || fromSets[c] != want {
							t.Fatalf("family %d workers=%d dense=%v: d[%d][%d] = %v (uint16 rank %d), %v (uint32 rank %d) and %v (sets), reference %v",
								f, workers, dense, i, j, got, narrow.Narrow[c], wide.Levels[wide.Wide[c]], wide.Wide[c], fromSets[c], want)
						}
					}
				}
				checkLevels(t, &narrow, fromSets)
				checkLevels(t, &wide, fromSets)
			}
		}
	}
	if got := DistanceMatrix([]Set{{}, {}}, 1); got[0][1] != 0 {
		t.Errorf("two empty sets: Jd %v, want 0", got[0][1])
	}
	if got := DistanceMatrix([]Set{{}, NewSet(0)}, 1); got[0][1] != 1 {
		t.Errorf("empty vs non-empty: Jd %v, want 1", got[0][1])
	}
}

// checkLevels holds a span's level table to its definition: strictly
// ascending from 0 to 1, and, when its keys were collected sparsely,
// every other level taken by a cell of the float matrix dist.
func checkLevels(t *testing.T, sp *RankSpan, dist []float64) {
	t.Helper()
	levels := sp.Levels
	if len(levels) < 2 || levels[0] != 0 || levels[len(levels)-1] != 1 {
		t.Fatalf("levels %v do not run from 0 to 1", levels)
	}
	taken := make(map[float64]bool)
	for _, v := range dist {
		taken[v] = true
	}
	for r := 1; r < len(levels); r++ {
		if !(levels[r-1] < levels[r]) {
			t.Fatalf("levels %d and %d out of order: %v, %v", r-1, r, levels[r-1], levels[r])
		}
		if sp.reach < 0 && r < len(levels)-1 && !taken[levels[r]] {
			t.Fatalf("level %d (%v) is taken by no pair", r, levels[r])
		}
	}
}

// forceKeys makes every fill collect its pair keys densely or
// sparsely, whatever the sets' shape, until the returned func restores
// the rule.
func forceKeys(dense bool) (restore func()) {
	rule := denseKeys
	denseKeys = func(int, int) bool { return dense }
	return func() { denseKeys = rule }
}

// TestRankSpanWidens drives a span through fills of a few short sets
// (narrow cells), of sets whose distances pass 65,536 levels — 450 sets
// of 1 to 420 ids from 860, whose dense key table does, or 420 sets of
// 1 to 2,400 ids from 4,000, whose sparse keys do — and of the short
// sets again: the uint16 cells give way to uint32 ones and the span
// stays wide, with every cell's level the pair's JaccardRuns distance
// throughout.
func TestRankSpanWidens(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type family struct {
		ids, at []int32
		want    []float64
	}
	newFamily := func(n, universe, longest int) family {
		f := family{at: []int32{0}, want: make([]float64, n*n)}
		sorted := make([][]int32, n)
		for i := range sorted {
			for id := range randomSet(rng, universe, 1+rng.Intn(longest)) {
				sorted[i] = append(sorted[i], int32(id))
			}
			f.ids = append(f.ids, sorted[i]...)
			f.at = append(f.at, int32(len(f.ids)))
			slices.Sort(sorted[i])
		}
		for i := range sorted {
			for j := range sorted {
				f.want[i*n+j] = 1 - JaccardRuns(sorted[i], sorted[j])
			}
		}
		return f
	}
	short := newFamily(12, 40, 9)
	for _, long := range []struct {
		name  string
		f     family
		dense bool
	}{{"dense", newFamily(450, 860, 420), true}, {"sparse", newFamily(420, 4000, 2400), false}} {
		var sp RankSpan
		for _, step := range []struct {
			name        string
			f           family
			dense, wide bool
		}{
			{"short", short, true, false},
			{long.name, long.f, long.dense, true},
			{"short again", short, true, true},
		} {
			sp.Fill(step.f.ids, step.f.at, 2)
			cells := len(step.f.want)
			if dense := sp.reach >= 0; dense != step.dense {
				t.Fatalf("%s: dense keys %v, want %v", step.name, dense, step.dense)
			}
			if step.wide && (len(sp.Wide) != cells || sp.Narrow != nil) || !step.wide && (len(sp.Narrow) != cells || sp.Wide != nil) {
				t.Fatalf("%s: %d levels in %d narrow cells and %d wide", step.name, len(sp.Levels), len(sp.Narrow), len(sp.Wide))
			}
			for c, want := range step.f.want {
				var r uint32
				if sp.Wide != nil {
					r = sp.Wide[c]
				} else {
					r = uint32(sp.Narrow[c])
				}
				if got := sp.Levels[r]; got != want {
					t.Fatalf("%s: cell %d at level %v, want %v", step.name, c, got, want)
				}
			}
			checkLevels(t, &sp, step.f.want)
			t.Logf("%s: %d levels", step.name, len(sp.Levels))
		}
	}
}

// TestFillRefuses pins the fills' precondition — a span of the size
// the sets make — and that long sets few in number cost key storage by
// their pairs, not by their length: two sets of 5,000 ids sharing 2,500
// keep one key where a table over every key would hold 50 M.
func TestFillRefuses(t *testing.T) {
	mustPanic := func(name string, fill func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fill()
	}
	mustPanic("short distances", func() { FillDistanceMatrix(make([]float64, 3), []Set{NewSet(1), NewSet(2)}, 1) })

	var ids []int32
	at := []int32{0}
	for i := 0; i < 2; i++ {
		for id := 0; id < 5000; id++ {
			ids = append(ids, int32(id+2500*i))
		}
		at = append(at, int32(len(ids)))
	}
	var sp RankSpan
	sp.Fill(ids, at, 2)
	if want := 1 - ratio(2500, 7500); len(sp.keyRank) != 1 || sp.Levels[sp.Narrow[1]] != want || sp.Levels[sp.Narrow[2]] != want {
		t.Errorf("two long sets: %d keys kept, distances %v and %v, want 1 and %v", len(sp.keyRank), sp.Levels[sp.Narrow[1]], sp.Levels[sp.Narrow[2]], want)
	}
}

func TestDistanceMatrixTable(t *testing.T) {
	everywhere := make([]Set, 9)
	for i := range everywhere {
		everywhere[i] = NewSet(7, 100+i, 200+i%3)
	}
	tests := []struct {
		name string
		sets []Set
		want [][]float64 // nil: the reference comparison alone
	}{
		{"n=0", nil, [][]float64{}},
		{"n=1", []Set{NewSet(1, 2)}, [][]float64{{0}}},
		{"n=1 empty", []Set{{}}, [][]float64{{0}}},
		{"n=2", []Set{NewSet(1, 2, 3), NewSet(2, 3, 4)}, [][]float64{{0, 0.5}, {0.5, 0}}},
		{"two empty sets", []Set{{}, {}}, [][]float64{{0, 0}, {0, 0}}},
		{"empty vs non-empty", []Set{{}, NewSet(4)}, [][]float64{{0, 1}, {1, 0}}},
		{"identical", []Set{NewSet(1, 2, 3), NewSet(3, 2, 1)}, [][]float64{{0, 0}, {0, 0}}},
		{"disjoint", []Set{NewSet(1, 2), NewSet(3, 4)}, [][]float64{{0, 1}, {1, 0}}},
		{"empties among others", []Set{{}, NewSet(1), {}, NewSet(1, 2), nil}, [][]float64{
			{0, 1, 0, 1, 0},
			{1, 0, 1, 0.5, 1},
			{0, 1, 0, 1, 0},
			{1, 0.5, 1, 0, 1},
			{0, 1, 0, 1, 0},
		}},
		{"negative ids", []Set{NewSet(-130, -1, 0, 77), NewSet(-130, 77, 90), NewSet(-1)}, nil},
		{"id span beyond 2^21", []Set{NewSet(0, 1<<21+1), NewSet(0), NewSet(1<<21 + 1), NewSet(-1<<50, 1<<50)}, nil},
		{"one id in every set", everywhere, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkMatrix(t, tt.name, tt.sets)
			if tt.want == nil {
				return
			}
			if got := DistanceMatrix(tt.sets, 0); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("DistanceMatrix = %v, want %v", got, tt.want)
			}
		})
	}
}
