package similarity

import (
	"math/rand"
	"testing"
)

// BenchmarkJaccardSet times the map kernel, the reference the matrix
// kernel is tested against; the distance-matrix benches time the
// inverted-index kernel on a dense-ish synthetic family and on the
// shape the server feeds it.

func BenchmarkJaccardSet(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sa, sb := randomSet(rng, 4000, 300), randomSet(rng, 4000, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Jaccard(sa, sb)
	}
}

func BenchmarkDistanceMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	uniform := make([]Set, 200)
	for i := range uniform {
		uniform[i] = randomSet(rng, 4000, 150)
	}
	// The shape of bench's city_sched top-20 % signatures (seed 1: 1,240
	// sets, 8,347 memberships, 917 distinct of 15,190 videos, the top
	// one in 788 sets, 827 k sharing pairs); these Zipf parameters give
	// 8,982 / 1,277 / 741 / 941 k.
	zipf := rand.NewZipf(rng, 1.4, 3.5, 15189)
	city := make([]Set, 1240)
	for i := range city {
		city[i] = make(Set)
		for k := 0; k < 8; k++ {
			city[i].Add(int(zipf.Uint64()))
		}
	}
	for _, bc := range []struct {
		name string
		sets []Set
	}{{"uniform200x150", uniform}, {"city1240x7", city}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = DistanceMatrix(bc.sets, 1)
			}
		})
	}
}
