package cluster

import (
	"math/rand"
	"testing"
)

// BenchmarkAgglomerate times the chain at the serving benchmark's
// city_sched size (1,240 hotspots) on tie-heavy city-shaped Jaccard
// distances, through the rank door core's round uses (inplace: the
// uint16 rank span is refilled off the clock, as the round's fill phase
// does) and the float one the bench harness's cluster.agglomerative_ms
// measures (copying, which copies its input's bits first). With
// -benchmem, copying shows the n²·8-byte span (12.3 MB) per op and
// inplace none — what is left is the dendrogram and the slot tables.
func BenchmarkAgglomerate(b *testing.B) {
	const n = 1240
	dist := cityJaccard(n, rand.New(rand.NewSource(1)))
	master, levels := rankMatrix(dist)
	link := Complete

	b.Run("inplace", func(b *testing.B) {
		cells := make([]uint16, n*n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(cells, master)
			b.StartTimer()
			if _, err := AgglomerativeInPlace(n, cells, levels); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copying", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AgglomerativeMatrix(dist, link); err != nil {
				b.Fatal(err)
			}
		}
	})
}
