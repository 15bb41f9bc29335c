package count

import (
	"fmt"
	"testing"
)

// benchSinkInt / benchSinkRanks keep benchmark results live so the
// compiler cannot elide the measured work.
var (
	benchSinkInt   int
	benchSinkRanks []int32
)

// BenchmarkBitmapIntersect is the dense-intersection microbench behind the
// bitmap probes of Index.Count/CountTopK: the same two posting lists
// intersected by the galloping slice merge (IntersectInto) and by the
// word-wise AND + popcount bitmap kernels, across densities. stride=2 is
// the dense regime bitmaps target; stride=32 approaches the sparse
// crossover where the slice walk stays competitive.
func BenchmarkBitmapIntersect(b *testing.B) {
	const n = 1 << 17 // rank universe: two containers
	for _, stride := range []int{2, 8, 32} {
		a := make([]int32, 0, n/stride+1)
		c := make([]int32, 0, n/stride+1)
		for r := 0; r < n; r += stride {
			a = append(a, int32(r))
			c = append(c, int32(r+r%3)) // ~1/3 overlap with a
		}
		bmA, bmC := BitmapFromRanks(a), BitmapFromRanks(c)
		dst := make([]int32, 0, len(a))
		b.Run(fmt.Sprintf("slice-intersect/stride=%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = IntersectInto(dst[:0], a, c)
			}
			benchSinkRanks = dst
		})
		b.Run(fmt.Sprintf("bitmap-and/stride=%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = bmA.And(bmC).AppendRanks(dst[:0])
			}
			benchSinkRanks = dst
		})
		b.Run(fmt.Sprintf("bitmap-and-card/stride=%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSinkInt = bmA.AndCardinality(bmC)
			}
		})
		b.Run(fmt.Sprintf("bitmap-card-below/stride=%d", stride), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSinkInt = bmA.AndCardinalityBelow(bmC, n/2)
			}
		})
	}
}
