package rankfair

import (
	"encoding/json"
	"io"
	"sync"
	"testing"

	"rankfair/internal/synth"
)

// wideReport builds the wide-result serialization workload: a proportional
// audit over the german schema with a low size threshold and a wide k
// range, which yields result sets at hundreds of prefixes. This is the
// ROADMAP "sortPatterns + per-k InfoAt during report serialization" hot
// spot.
func wideReport(b *testing.B) *Report {
	b.Helper()
	bundle := synth.GermanCredit(1000, 3)
	in, err := bundle.InputAttrs(8)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewFromInput(in, bundle.Table.CatDicts())
	if err != nil {
		b.Fatal(err)
	}
	rep, err := a.Detect(AuditParams{Measure: MeasureProp, MinSize: 10, KMin: 10, KMax: 300, Alpha: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// resetMaterialization drops the report's cached count vectors and the
// analyst's counting index, so an iteration pays the full indexed cost.
func resetMaterialization(rep *Report, dropIndex bool) {
	rep.matMu.Lock()
	rep.levels, rep.expWeights, rep.expPrefix = nil, nil, nil
	rep.matMu.Unlock()
	if dropIndex {
		rep.analyst.idxOnce = sync.Once{}
		rep.analyst.idx = nil
	}
}

// BenchmarkReportToJSON compares report serialization over the naive
// per-(group, k) dataset scans against the posting-list materializer.
//
//   - naive: the pre-index pipeline (naive_report_test.go).
//   - indexed-cold: rebuilds the counting index and the per-group vectors
//     every iteration — the first serialization ever seen for a dataset.
//   - indexed: index warm on the analyst (the cached-Analyst serving
//     case), per-group vectors rebuilt — a fresh report on a known dataset.
//   - indexed-warm: everything cached — re-serializing an existing report.
func BenchmarkReportToJSON(b *testing.B) {
	rep := wideReport(b)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := rep.toJSONNaive(); len(out.Results) == 0 {
				b.Fatal("empty report")
			}
		}
	})
	b.Run("indexed-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resetMaterialization(rep, true)
			if out := rep.ToJSON(); len(out.Results) == 0 {
				b.Fatal("empty report")
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		rep.analyst.index()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resetMaterialization(rep, false)
			if out := rep.ToJSON(); len(out.Results) == 0 {
				b.Fatal("empty report")
			}
		}
	})
	b.Run("indexed-warm", func(b *testing.B) {
		rep.ToJSON() // materialize once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out := rep.ToJSON(); len(out.Results) == 0 {
				b.Fatal("empty report")
			}
		}
	})
}

// BenchmarkReportWriteJSON isolates the encoding layer on a warm report:
// the reflective encoding/json encoder (the pre-PR WriteJSON) against the
// pooled-buffer streaming encoder, whose output is byte-identical
// (TestWriteJSONMatchesEncodingJSONOnRealReport).
func BenchmarkReportWriteJSON(b *testing.B) {
	rep := wideReport(b)
	rep.ToJSON() // materialize once
	b.Run("encoding-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep.ToJSON()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := rep.WriteJSON(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInfoAt isolates the per-k enrichment away from JSON encoding.
func BenchmarkInfoAt(b *testing.B) {
	rep := wideReport(b)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if infos := rep.infoAtNaive(150); len(infos) == 0 {
				b.Fatal("empty result set")
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		rep.ToJSON() // materialize once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if infos := rep.InfoAt(150); len(infos) == 0 {
				b.Fatal("empty result set")
			}
		}
	})
}
