package similarity

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(3, 1, 2, 3)
	if s.Len() != 3 {
		t.Errorf("Len() = %d, want 3 (duplicates dropped)", s.Len())
	}
	if !s.Contains(1) || s.Contains(9) {
		t.Error("Contains() wrong")
	}
	s.Add(9)
	if !s.Contains(9) {
		t.Error("Add() did not insert")
	}
	got := s.Sorted()
	want := []int{1, 2, 3, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted() = %v, want %v", got, want)
		}
	}
}

func TestJaccardKnownValues(t *testing.T) {
	tests := []struct {
		name string
		a, b Set
		want float64
	}{
		{"identical", NewSet(1, 2, 3), NewSet(1, 2, 3), 1},
		{"disjoint", NewSet(1, 2), NewSet(3, 4), 0},
		{"half", NewSet(1, 2), NewSet(2, 3), 1.0 / 3},
		{"subset", NewSet(1, 2, 3, 4), NewSet(1, 2), 0.5},
		{"both empty", Set{}, Set{}, 1},
		{"one empty", NewSet(1), Set{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Jaccard(tt.a, tt.b); got != tt.want {
				t.Errorf("Jaccard() = %v, want %v", got, tt.want)
			}
			if got := Jaccard(tt.b, tt.a); got != tt.want {
				t.Errorf("Jaccard() reversed = %v, want %v", got, tt.want)
			}
			if got, want := JaccardDistance(tt.a, tt.b), 1-tt.want; got != want {
				t.Errorf("JaccardDistance() = %v, want %v", got, want)
			}
		})
	}
}

func TestJaccardBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(na, nb uint8) bool {
		a := make(Set)
		b := make(Set)
		for i := 0; i < int(na%40); i++ {
			a.Add(rng.Intn(30))
		}
		for i := 0; i < int(nb%40); i++ {
			b.Add(rng.Intn(30))
		}
		j := Jaccard(a, b)
		if j < 0 || j > 1 {
			return false
		}
		return Jaccard(a, b) == Jaccard(b, a) && Jaccard(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopK(t *testing.T) {
	demand := map[int]int64{10: 5, 20: 3, 30: 3, 40: 1}
	got, err := TopK(demand, 2)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	// 10 (count 5) then the tie 20/30 broken by smaller id → 20.
	if !got.Contains(10) || !got.Contains(20) || got.Len() != 2 {
		t.Errorf("TopK(2) = %v, want {10, 20}", got.Sorted())
	}
	all, err := TopK(demand, 99)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 4 {
		t.Errorf("TopK(99) = %d items, want 4", all.Len())
	}
	if _, err := TopK(demand, -1); err == nil {
		t.Error("TopK(-1) succeeded")
	}
	zero, err := TopK(demand, 0)
	if err != nil || zero.Len() != 0 {
		t.Errorf("TopK(0) = %v (err %v), want empty", zero, err)
	}
}

func TestTopFraction(t *testing.T) {
	demand := make(map[int]int64)
	for i := 0; i < 10; i++ {
		demand[i] = int64(100 - i)
	}
	got, err := TopFraction(demand, 0.2)
	if err != nil {
		t.Fatalf("TopFraction: %v", err)
	}
	if got.Len() != 2 || !got.Contains(0) || !got.Contains(1) {
		t.Errorf("TopFraction(0.2) = %v, want {0, 1}", got.Sorted())
	}
	// Rounding up: 20% of 3 items is 1 (ceil of 0.6).
	small := map[int]int64{1: 3, 2: 2, 3: 1}
	got, err = TopFraction(small, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(1) {
		t.Errorf("TopFraction(0.2 of 3) = %v, want {1}", got.Sorted())
	}
	if _, err := TopFraction(demand, 0); err == nil {
		t.Error("TopFraction(0) succeeded")
	}
	if _, err := TopFraction(demand, 1.1); err == nil {
		t.Error("TopFraction(>1) succeeded")
	}
	empty, err := TopFraction(map[int]int64{}, 0.5)
	if err != nil || empty.Len() != 0 {
		t.Errorf("TopFraction(empty) = %v (err %v), want empty", empty, err)
	}
}

// TestTopCount pins the one spelling of the top-fraction support size —
// ceil(frac·n), at least 1 of a non-empty support — and that
// TopFraction returns exactly that many items.
func TestTopCount(t *testing.T) {
	fracs := []float64{0.2, 0.5, 1}
	for _, tt := range []struct {
		n    int
		want [3]int
	}{
		{0, [3]int{0, 0, 0}},
		{1, [3]int{1, 1, 1}},
		{4, [3]int{1, 2, 4}},
		{5, [3]int{1, 3, 5}},
		{6, [3]int{2, 3, 6}},
		{1000, [3]int{200, 500, 1000}},
	} {
		demand := make(map[int]int64, tt.n)
		for id := 0; id < tt.n; id++ {
			demand[id] = int64(id % 7)
		}
		for i, frac := range fracs {
			if got := TopCount(tt.n, frac); got != tt.want[i] {
				t.Errorf("TopCount(%d, %v) = %d, want %d", tt.n, frac, got, tt.want[i])
			}
			if set, err := TopFraction(demand, frac); err != nil || set.Len() != tt.want[i] {
				t.Errorf("TopFraction(%d entries, %v) holds %d items (err %v), want %d", tt.n, frac, set.Len(), err, tt.want[i])
			}
		}
	}
}

func TestTopKDeterministic(t *testing.T) {
	demand := map[int]int64{}
	for i := 0; i < 50; i++ {
		demand[i] = 1 // all tied
	}
	first, err := TopK(demand, 10)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		again, err := TopK(demand, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatal("TopK not deterministic in size")
		}
		for id := range first {
			if !again.Contains(id) {
				t.Fatal("TopK not deterministic under map iteration order")
			}
		}
	}
}

func TestDistanceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sets := make([]Set, 25)
	for i := range sets {
		sets[i] = NewSet()
		for k := 0; k < 5+rng.Intn(20); k++ {
			sets[i].Add(rng.Intn(60))
		}
	}

	serial := DistanceMatrix(sets, 1)
	n := len(sets)
	if len(serial) != n {
		t.Fatalf("matrix has %d rows, want %d", len(serial), n)
	}
	for i := 0; i < n; i++ {
		if len(serial[i]) != n {
			t.Fatalf("row %d has %d entries, want %d", i, len(serial[i]), n)
		}
		if serial[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v, want 0", i, i, serial[i][i])
		}
		for j := i + 1; j < n; j++ {
			want := JaccardDistance(sets[i], sets[j])
			if serial[i][j] != want {
				t.Errorf("[%d][%d] = %v, want %v", i, j, serial[i][j], want)
			}
			if serial[i][j] != serial[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}

	// Every worker count computes the identical matrix (run under
	// -race this also exercises the fan-out for data races).
	for _, workers := range []int{0, 2, 3, 16} {
		got := DistanceMatrix(sets, workers)
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("DistanceMatrix(workers=%d) differs from serial", workers)
		}
	}

	if got := DistanceMatrix(nil, 4); len(got) != 0 {
		t.Errorf("DistanceMatrix(nil) = %v, want empty", got)
	}
}
