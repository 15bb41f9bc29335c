package count

import (
	"testing"

	"rankfair/internal/pattern"
)

// ranksEqual reports whether two rank lists are identical.
func ranksEqual(a, b []int32) bool {
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

// denseRun returns n consecutive ranks starting at base.
func denseRun(base, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(base + i)
	}
	return out
}

// TestBitmapContainerForms pins the representation cut: a container at
// arrayMaxCard stays in array form, one entry more flips it to the word
// form, and both round-trip and count identically.
func TestBitmapContainerForms(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ranks    []int32
		wantWord bool
	}{
		{"empty", nil, false},
		{"single", []int32{7}, false},
		{"at-array-max", denseRun(100, arrayMaxCard), false},
		{"past-array-max", denseRun(100, arrayMaxCard+1), true},
		{"container-tail", denseRun(containerSpan-5, 5), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bm := BitmapFromRanks(tc.ranks)
			if bm.Cardinality() != len(tc.ranks) {
				t.Fatalf("Cardinality = %d, want %d", bm.Cardinality(), len(tc.ranks))
			}
			if got := bm.AppendRanks(nil); !ranksEqual(got, tc.ranks) {
				t.Fatalf("AppendRanks = %v, want %v", got, tc.ranks)
			}
			if len(tc.ranks) > 0 {
				if isWord := bm.words[0] != nil; isWord != tc.wantWord {
					t.Fatalf("word container = %v, want %v", isWord, tc.wantWord)
				}
			}
			if bm.SizeBytes() <= 0 {
				t.Fatalf("SizeBytes = %d, want > 0", bm.SizeBytes())
			}
		})
	}
}

// TestBitmapMultiContainer covers ranks spanning several 1<<16 chunks,
// including a skipped chunk, with CountBelow probed at and around every
// container boundary.
func TestBitmapMultiContainer(t *testing.T) {
	ranks := append(denseRun(10, 20), denseRun(containerSpan+100, arrayMaxCard+50)...)
	ranks = append(ranks, denseRun(3*containerSpan+1, 3)...) // chunk 2 skipped
	bm := BitmapFromRanks(ranks)
	if got := bm.AppendRanks(nil); !ranksEqual(got, ranks) {
		t.Fatalf("AppendRanks mismatch: got %d entries, want %d", len(got), len(ranks))
	}
	if len(bm.keys) != 3 {
		t.Fatalf("containers = %d, want 3", len(bm.keys))
	}
	naive := func(k int) int {
		n := 0
		for _, r := range ranks {
			if int(r) < k {
				n++
			}
		}
		return n
	}
	for _, k := range []int{
		0, 1, 10, 30, containerSpan - 1, containerSpan, containerSpan + 100,
		containerSpan + 100 + 64, // word-aligned cut inside the word container
		containerSpan + 100 + 65, // mid-word cut
		2 * containerSpan, 3 * containerSpan, 3*containerSpan + 2, 4 * containerSpan,
	} {
		if got, want := bm.CountBelow(k), naive(k); got != want {
			t.Fatalf("CountBelow(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestBitmapAndForms exercises every container pairing of the intersection
// kernels — array×array, array×word, word×word, and key-disjoint — against
// the slice-merge oracle, for AndCardinality, AndCardinalityBelow, and the
// materialized And.
func TestBitmapAndForms(t *testing.T) {
	sparse := []int32{5, 100, 200, 4000, int32(containerSpan) + 9}
	word := denseRun(0, arrayMaxCard+200) // word container in chunk 0
	arr := denseRun(3900, 300)            // array container straddling both
	for _, tc := range []struct {
		name string
		a, b []int32
	}{
		{"arr-arr", sparse, arr},
		{"arr-word", arr, word},
		{"word-arr", word, sparse},
		{"word-word", word, denseRun(2000, arrayMaxCard+300)},
		{"disjoint-keys", sparse, denseRun(2*containerSpan, 10)},
		{"empty-left", nil, sparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bmA, bmB := BitmapFromRanks(tc.a), BitmapFromRanks(tc.b)
			want := IntersectInto(nil, tc.a, tc.b)
			if got := bmA.AndCardinality(bmB); got != len(want) {
				t.Fatalf("AndCardinality = %d, want %d", got, len(want))
			}
			if got := bmA.And(bmB).AppendRanks(nil); !ranksEqual(got, want) {
				t.Fatalf("And().AppendRanks = %v, want %v", got, want)
			}
			for _, k := range []int{0, 1, 2048, 4000, containerSpan, 2*containerSpan + 5} {
				wantK := 0
				for _, r := range want {
					if int(r) < k {
						wantK++
					}
				}
				if got := bmA.AndCardinalityBelow(bmB, k); got != wantK {
					t.Fatalf("AndCardinalityBelow(%d) = %d, want %d", k, got, wantK)
				}
			}
		})
	}
}

// TestBuildBitmapCut pins the Build-side cost model: posting lists at or
// above bitmapMinLen get a bitmap, shorter ones stay slice-only.
func TestBuildBitmapCut(t *testing.T) {
	// Attribute 0: value 0 appears bitmapMinLen times, value 1 once.
	n := bitmapMinLen + 1
	rows := make([][]int32, n)
	ranking := make([]int, n)
	for i := range rows {
		v := int32(0)
		if i == n-1 {
			v = 1
		}
		rows[i] = []int32{v}
		ranking[i] = i
	}
	space := &pattern.Space{Names: []string{"A"}, Cards: []int{2}}
	ix := Build(rows, space, ranking)
	if bm := ix.bitmaps[0][0]; bm == nil {
		t.Fatalf("Bitmap(0,0) = nil, want bitmap for list of len %d", bitmapMinLen)
	} else if got := bm.AppendRanks(nil); !ranksEqual(got, ix.Postings(0, 0)) {
		t.Fatalf("Bitmap(0,0) ranks %v != postings %v", got, ix.Postings(0, 0))
	}
	if bm := ix.bitmaps[0][1]; bm != nil {
		t.Fatalf("Bitmap(0,1) = %v, want nil below the bitmapMinLen cut", bm)
	}
}
