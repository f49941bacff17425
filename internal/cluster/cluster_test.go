package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// matrixDist adapts a symmetric matrix to a DistFunc.
func matrixDist(m [][]float64) DistFunc {
	return func(i, j int) float64 { return m[i][j] }
}

func TestAgglomerativeErrors(t *testing.T) {
	if _, err := Agglomerative(0, func(i, j int) float64 { return 1 }, Complete); err == nil {
		t.Error("Agglomerative(n=0) succeeded")
	}
	if _, err := Agglomerative(3, func(i, j int) float64 { return 1 }, Linkage(9)); err == nil {
		t.Error("Agglomerative(bad linkage) succeeded")
	}
	if _, err := Agglomerative(2, func(i, j int) float64 { return -1 }, Complete); err == nil {
		t.Error("Agglomerative(negative distance) succeeded")
	}
	if _, err := Agglomerative(2, func(i, j int) float64 { return math.NaN() }, Complete); err == nil {
		t.Error("Agglomerative(NaN distance) succeeded")
	}
}

func TestSingleItem(t *testing.T) {
	d, err := Agglomerative(1, nil, Complete)
	if err != nil {
		t.Fatalf("Agglomerative: %v", err)
	}
	if d.n != 1 || len(d.merges) != 0 {
		t.Fatalf("unexpected dendrogram for single item: %+v", d)
	}
	groups := d.Cut(0.5)
	if len(groups) != 1 || len(groups[0]) != 1 || groups[0][0] != 0 {
		t.Errorf("Cut() = %v, want [[0]]", groups)
	}
}

func TestTwoGroupsAllLinkages(t *testing.T) {
	// Items 0,1,2 are mutually close (0.1); items 3,4 are close (0.1);
	// across groups everything is far (0.9).
	n := 5
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	set := func(i, j int, v float64) { m[i][j] = v; m[j][i] = v }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			set(i, j, 0.9)
		}
	}
	set(0, 1, 0.1)
	set(0, 2, 0.1)
	set(1, 2, 0.1)
	set(3, 4, 0.1)

	for _, link := range []Linkage{Single, Complete, Average} {
		t.Run(link.String(), func(t *testing.T) {
			d, err := Agglomerative(n, matrixDist(m), link)
			if err != nil {
				t.Fatalf("Agglomerative: %v", err)
			}
			groups := d.Cut(0.5)
			if len(groups) != 2 {
				t.Fatalf("Cut(0.5) produced %d groups %v, want 2", len(groups), groups)
			}
			wantA := []int{0, 1, 2}
			wantB := []int{3, 4}
			if !equalIntSlices(groups[0], wantA) || !equalIntSlices(groups[1], wantB) {
				t.Errorf("Cut(0.5) = %v, want [%v %v]", groups, wantA, wantB)
			}
			// Cutting below every distance isolates all leaves.
			if got := d.Cut(0.05); len(got) != n {
				t.Errorf("Cut(0.05) produced %d groups, want %d", len(got), n)
			}
			// Cutting above every distance merges everything.
			if got := d.Cut(1.0); len(got) != 1 {
				t.Errorf("Cut(1.0) produced %d groups, want 1", len(got))
			}
		})
	}
}

func TestLinkageDifference(t *testing.T) {
	// A chain 0-1-2 with d(0,1)=d(1,2)=0.3 and d(0,2)=0.8.
	m := [][]float64{
		{0, 0.3, 0.8},
		{0.3, 0, 0.3},
		{0.8, 0.3, 0},
	}
	// Single linkage chains everything below 0.5.
	dSingle, err := Agglomerative(3, matrixDist(m), Single)
	if err != nil {
		t.Fatal(err)
	}
	if got := dSingle.Cut(0.5); len(got) != 1 {
		t.Errorf("single-linkage Cut(0.5) = %v, want one chained cluster", got)
	}
	// Complete linkage refuses to put 0 and 2 together below 0.8.
	dComplete, err := Agglomerative(3, matrixDist(m), Complete)
	if err != nil {
		t.Fatal(err)
	}
	if got := dComplete.Cut(0.5); len(got) != 2 {
		t.Errorf("complete-linkage Cut(0.5) = %v, want two clusters", got)
	}
}

func TestMergesSortedByHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		m := randomMatrix(n, rng)
		for _, link := range []Linkage{Single, Complete, Average} {
			d, err := Agglomerative(n, matrixDist(m), link)
			if err != nil {
				t.Fatalf("Agglomerative: %v", err)
			}
			merges := d.merges
			if len(merges) != n-1 {
				t.Fatalf("%v: %d merges, want %d", link, len(merges), n-1)
			}
			for i := 1; i < len(merges); i++ {
				if merges[i].Height < merges[i-1].Height {
					t.Fatalf("%v: merges not sorted by height: %v", link, merges)
				}
			}
			if last := merges[len(merges)-1]; last.Size != n {
				t.Fatalf("%v: final merge size %d, want %d", link, last.Size, n)
			}
		}
	}
}

func TestCompleteLinkageCutProperty(t *testing.T) {
	// With complete linkage, every pair inside a threshold-cut cluster
	// is closer than the threshold — the property the paper relies on
	// ("restrict Jd between any two hotspots in the same cluster lower
	// than 0.5").
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(25)
		m := randomMatrix(n, rng)
		d, err := Agglomerative(n, matrixDist(m), Complete)
		if err != nil {
			t.Fatalf("Agglomerative: %v", err)
		}
		threshold := rng.Float64()
		for _, group := range d.Cut(threshold) {
			for a := 0; a < len(group); a++ {
				for b := a + 1; b < len(group); b++ {
					if m[group[a]][group[b]] > threshold {
						t.Fatalf("trial %d: items %d,%d at distance %v share a cluster cut at %v",
							trial, group[a], group[b], m[group[a]][group[b]], threshold)
					}
				}
			}
		}
	}
}

func TestCutPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		m := randomMatrix(n, rng)
		for _, link := range []Linkage{Single, Complete, Average} {
			d, err := Agglomerative(n, matrixDist(m), link)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]bool)
			for _, g := range d.Cut(rng.Float64()) {
				for _, leaf := range g {
					if seen[leaf] {
						t.Fatalf("leaf %d appears in two clusters", leaf)
					}
					seen[leaf] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("cut covers %d leaves, want %d", len(seen), n)
			}
		}
	}
}

func TestCutK(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 12
	m := randomMatrix(n, rng)
	d, err := Agglomerative(n, matrixDist(m), Average)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		groups, err := d.CutK(k)
		if err != nil {
			t.Fatalf("CutK(%d): %v", k, err)
		}
		if len(groups) != k {
			t.Errorf("CutK(%d) produced %d groups", k, len(groups))
		}
	}
	if _, err := d.CutK(0); err == nil {
		t.Error("CutK(0) succeeded")
	}
	if _, err := d.CutK(n + 1); err == nil {
		t.Error("CutK(n+1) succeeded")
	}
}

func TestLinkageString(t *testing.T) {
	if Single.String() != "single" || Complete.String() != "complete" || Average.String() != "average" {
		t.Error("Linkage.String() unexpected values")
	}
	if Linkage(42).String() == "" {
		t.Error("unknown Linkage.String() empty")
	}
}

func randomMatrix(n int, rng *rand.Rand) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAgglomerativeMatrixMatchesAgglomerative asserts the precomputed-
// matrix entry point is a drop-in: same distances, same dendrogram,
// for every linkage — and that the caller's matrix is not mutated.
func TestAgglomerativeMatrixMatchesAgglomerative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 20
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			m[i][j] = v
			m[j][i] = v
		}
	}
	orig := make([][]float64, n)
	for i := range m {
		orig[i] = append([]float64(nil), m[i]...)
	}

	for _, link := range []Linkage{Single, Complete, Average} {
		want, err := Agglomerative(n, matrixDist(m), link)
		if err != nil {
			t.Fatalf("%v: Agglomerative: %v", link, err)
		}
		got, err := AgglomerativeMatrix(m, link)
		if err != nil {
			t.Fatalf("%v: AgglomerativeMatrix: %v", link, err)
		}
		if !reflect.DeepEqual(want.merges, got.merges) {
			t.Errorf("%v: dendrograms differ:\n%+v\nvs\n%+v", link, want.merges, got.merges)
		}
	}
	if !reflect.DeepEqual(m, orig) {
		t.Error("AgglomerativeMatrix mutated the caller's matrix")
	}
}

func TestAgglomerativeMatrixErrors(t *testing.T) {
	if _, err := AgglomerativeMatrix(nil, Complete); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := AgglomerativeMatrix([][]float64{{0, 1}, {1}}, Complete); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := AgglomerativeMatrix([][]float64{{0, -1}, {-1, 0}}, Complete); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := AgglomerativeMatrix([][]float64{{0, math.NaN()}, {math.NaN(), 0}}, Complete); err == nil {
		t.Error("NaN distance accepted")
	}
	if _, err := AgglomerativeMatrix([][]float64{{0, 1}, {1, 0}}, Linkage(9)); err == nil {
		t.Error("bad linkage accepted")
	}
	d, err := AgglomerativeMatrix([][]float64{{0}}, Complete)
	if err != nil || d.n != 1 {
		t.Errorf("single-item matrix: %v, %v", d, err)
	}
}
