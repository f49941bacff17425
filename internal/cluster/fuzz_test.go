package cluster

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/similarity"
)

// FuzzRankChain holds the round's cluster phase — the rank fill, then
// the rank chain — to the float path it replaced: JaccardDistance per
// pair into referenceAgglomerate. Each pair of input bytes is one
// signature over a 16-video universe, so pairs tie all the time and
// empty signatures are common. The merge lists must agree on A, B, Size
// and the bits of every Height at both rank widths (1 and 3 fill
// workers) and through the copying door, and Cut at 0.5, 0.75 and 1
// must group as the reference does.
func FuzzRankChain(f *testing.F) {
	f.Add([]byte{0x0f, 0x00, 0x0f, 0x00, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x03, 0x00, 0x07, 0x00, 0x0f, 0x00, 0x1f, 0x00, 0x3f, 0x00})
	f.Add([]byte{0xff, 0xff, 0x01, 0x80, 0x11, 0x11, 0x22, 0x22, 0x44, 0x44, 0x88, 0x88, 0x33, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/2, 48)
		if n == 0 {
			return
		}
		sets := make([]similarity.Set, n)
		at := []int32{0}
		var ids []int32
		for i := range sets {
			mask := uint16(data[2*i]) | uint16(data[2*i+1])<<8
			sets[i] = similarity.Set{}
			for m := mask; m != 0; m &= m - 1 {
				id := bits.TrailingZeros16(m)
				sets[i].Add(id)
				ids = append(ids, int32(id))
			}
			at = append(at, int32(len(ids)))
		}

		dist := symmetric(n, func(i, j int) float64 { return similarity.JaccardDistance(sets[i], sets[j]) })
		want, err := referenceAgglomerate(n, dist)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			want.merges = nil // the door returns before the kernel
		}

		var narrow similarity.RankSpan
		narrow.Fill(ids, at, 1)
		got, err := AgglomerativeInPlace(n, narrow.Narrow, narrow.Levels)
		if err != nil {
			t.Fatal(err)
		}
		wide := similarity.RankSpan{Wide: []uint32{}} // a span that has widened once
		wide.Fill(ids, at, 3)
		gotWide, err := AgglomerativeInPlace(n, wide.Wide, wide.Levels)
		if err != nil {
			t.Fatal(err)
		}
		copying, err := AgglomerativeMatrix(symmetric(n, func(i, j int) float64 { return similarity.JaccardDistance(sets[i], sets[j]) }), Complete)
		if err != nil {
			t.Fatal(err)
		}
		for door, d := range map[string]*Dendrogram{"uint16": got, "uint32": gotWide, "copying": copying} {
			if !sameMerges(d.merges, want.merges) {
				t.Fatalf("%s chain diverges from the float reference:\n got %+v\nwant %+v", door, d.merges, want.merges)
			}
		}
		for _, threshold := range []float64{0.5, 0.75, 1} {
			if g, ref := got.Cut(threshold), referenceCut(want, threshold); !reflect.DeepEqual(g, ref) {
				t.Fatalf("Cut(%v) = %v, reference %v", threshold, g, ref)
			}
		}
	})
}
