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
// kernel: every cell of FillDistanceRuns, and of the []Set adapter onto
// it, == JaccardDistance (0 on the diagonal) at workers 1, 2 and 7, and
// JaccardRuns on every ordered pair of sorted runs == Jaccard, on
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
			fromRuns, fromSets := make([]float64, n*n), make([]float64, n*n)
			FillDistanceRuns(fromRuns, ids, at, workers)
			FillDistanceMatrix(fromSets, sets, workers)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := JaccardDistance(sets[i], sets[j])
					if i == j {
						want = 0
					}
					if fromRuns[i*n+j] != want || fromSets[i*n+j] != want {
						t.Fatalf("family %d workers=%d: d[%d][%d] = %v (runs) and %v (sets), reference %v",
							f, workers, i, j, fromRuns[i*n+j], fromSets[i*n+j], want)
					}
				}
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
