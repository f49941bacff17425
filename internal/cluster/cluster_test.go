package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSingleItem(t *testing.T) {
	d, err := AgglomerativeMatrix([][]float64{{0}}, Complete)
	if err != nil {
		t.Fatalf("AgglomerativeMatrix: %v", err)
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

	t.Run(Complete.String(), func(t *testing.T) {
		d, err := AgglomerativeMatrix(m, Complete)
		if err != nil {
			t.Fatalf("AgglomerativeMatrix: %v", err)
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

func TestMergesSortedByHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		m := randomMatrix(n, rng)
		d, err := AgglomerativeMatrix(m, Complete)
		if err != nil {
			t.Fatalf("AgglomerativeMatrix: %v", err)
		}
		merges := d.merges
		if len(merges) != n-1 {
			t.Fatalf("%d merges, want %d", len(merges), n-1)
		}
		for i := 1; i < len(merges); i++ {
			if merges[i].Height < merges[i-1].Height {
				t.Fatalf("merges not sorted by height: %v", merges)
			}
		}
		if last := merges[len(merges)-1]; last.Size != n {
			t.Fatalf("final merge size %d, want %d", last.Size, n)
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
		d, err := AgglomerativeMatrix(m, Complete)
		if err != nil {
			t.Fatalf("AgglomerativeMatrix: %v", err)
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
		d, err := AgglomerativeMatrix(m, Complete)
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

func TestLinkageString(t *testing.T) {
	if Complete.String() != "complete" {
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

// TestAgglomerativeMatrixMatchesAgglomerative asserts the copying door
// is a drop-in for the consuming one, AgglomerativeInPlace: same
// distances, same dendrogram — and the caller's matrix is not mutated.
func TestAgglomerativeMatrixMatchesAgglomerative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 20
	m := randomMatrix(n, rng)
	orig := make([][]float64, n)
	for i := range m {
		orig[i] = append([]float64(nil), m[i]...)
	}

	ranks, levels := rankMatrix(m)
	want, err := AgglomerativeInPlace(n, ranks, levels)
	if err != nil {
		t.Fatalf("AgglomerativeInPlace: %v", err)
	}
	got, err := AgglomerativeMatrix(m, Complete)
	if err != nil {
		t.Fatalf("AgglomerativeMatrix: %v", err)
	}
	if !reflect.DeepEqual(want.merges, got.merges) {
		t.Errorf("dendrograms differ:\n%+v\nvs\n%+v", want.merges, got.merges)
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

// TestAgglomerativeMatrixDistinctDistances hands the copying door more
// distinct distances than uint16 ranks can hold, with no ties to lean
// on, and holds its chain over the distances' bits to the reference.
func TestAgglomerativeMatrixDistinctDistances(t *testing.T) {
	const n = 370 // 68,265 pairs, all distinct
	m := randomMatrix(n, rand.New(rand.NewSource(3)))
	want, err := referenceAgglomerate(n, cloneMatrix(m))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AgglomerativeMatrix(m, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMerges(got.merges, want.merges) {
		t.Fatal("the copying door diverges from the reference chain")
	}
}
