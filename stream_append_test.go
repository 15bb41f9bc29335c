package rankfair_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"rankfair"
	"rankfair/internal/synth"
)

// splitCSV renders a table to CSV and splits it into a base prefix (header
// + n rows), the remaining records, and the full CSV — the two upload
// routes the append differential compares.
func splitCSV(t testing.TB, table *rankfair.Dataset, n int) (baseCSV, fullCSV string, batch [][]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := rankfair.WriteCSV(&buf, table); err != nil {
		t.Fatal(err)
	}
	fullCSV = buf.String()
	records, err := csv.NewReader(strings.NewReader(fullCSV)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if n+1 > len(records) {
		t.Fatalf("split %d beyond %d records", n, len(records)-1)
	}
	var base bytes.Buffer
	w := csv.NewWriter(&base)
	if err := w.WriteAll(records[:n+1]); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return base.String(), fullCSV, records[n+1:]
}

// streamAuditParams returns one parameter set per measure, sized for the
// german bench bundle.
func streamAuditParams(kMin, kMax int) []rankfair.AuditParams {
	return []rankfair.AuditParams{
		{Measure: rankfair.MeasureGlobal, MinSize: 20, KMin: kMin, KMax: kMax,
			Lower: rankfair.StaircaseBounds(kMin, kMax, 5, 5, 10)},
		{Measure: rankfair.MeasureProp, MinSize: 20, KMin: kMin, KMax: kMax, Alpha: 0.8},
		{Measure: rankfair.MeasureGlobalUpper, MinSize: 20, KMin: kMin, KMax: kMax,
			Upper: rankfair.ConstantBounds(kMin, kMax, 8)},
		{Measure: rankfair.MeasurePropUpper, MinSize: 20, KMin: kMin, KMax: kMax, Beta: 1.2},
		{Measure: rankfair.MeasureExposure, MinSize: 20, KMin: kMin, KMax: kMax, Alpha: 0.8},
	}
}

// TestAppendDifferential is the tentpole guarantee of the streaming
// subsystem: append-then-audit must be byte-identical to
// fresh-upload-then-audit for every measure, serial and parallel. The
// appended analyst searches an Extend-ed index, the fresh one a built one.
func TestAppendDifferential(t *testing.T) {
	bundle := synth.GermanCredit(440, 17)
	baseCSV, fullCSV, batch := splitCSV(t, bundle.Table, 400)
	base, err := rankfair.ReadCSV(strings.NewReader(baseCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := rankfair.ReadCSV(strings.NewReader(fullCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appended, err := base.AppendRows(batch)
	if err != nil {
		t.Fatal(err)
	}

	ranker := &rankfair.ByColumns{Keys: []rankfair.ColumnKey{{Column: "credit_score", Descending: true}}}
	baseAnalyst, err := rankfair.New(base, ranker)
	if err != nil {
		t.Fatal(err)
	}
	baseAnalyst.Warm()
	appAnalyst, err := baseAnalyst.Append(appended, ranker)
	if err != nil {
		t.Fatal(err)
	}
	freshAnalyst, err := rankfair.New(full, ranker)
	if err != nil {
		t.Fatal(err)
	}

	for _, label := range engineLabels {
		for _, workers := range []int{1, 4} {
			for _, params := range streamAuditParams(10, 49) {
				params.Workers = workers
				name := fmt.Sprintf("%s/%s/workers=%d", params.Measure, label, workers)
				t.Run(name, func(t *testing.T) {
					got := detectJSON(t, appAnalyst, params)
					want := detectJSON(t, freshAnalyst, params)
					if got != want {
						t.Fatalf("append-then-audit diverges from fresh-upload-then-audit\nappend: %.400s\nfresh:  %.400s", got, want)
					}
				})
			}
		}
	}
}

// detectJSON runs one audit and serializes the report.
func detectJSON(t testing.TB, a *rankfair.Analyst, params rankfair.AuditParams) string {
	t.Helper()
	report, err := a.Detect(params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAppendFallbackRankers: rankers without incremental support must take
// the rebuild fallback and still produce correct analysts.
func TestAppendFallbackRankers(t *testing.T) {
	bundle := synth.GermanCredit(120, 3)
	baseCSV, fullCSV, batch := splitCSV(t, bundle.Table, 100)
	base, err := rankfair.ReadCSV(strings.NewReader(baseCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := rankfair.ReadCSV(strings.NewReader(fullCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appended, err := base.AppendRows(batch)
	if err != nil {
		// Schema drift: the service layer re-decodes the concatenated CSV;
		// do the same here (this test targets the ranker fallback, not the
		// table fast path).
		appended = full
	}
	// Linear normalizes over the whole column, so appends can reorder
	// existing rows; Append must fall back to a full re-rank and still
	// agree with the fresh analyst.
	ranker := &rankfair.Linear{Columns: []string{"credit_score"}}
	baseAnalyst, err := rankfair.New(base, ranker)
	if err != nil {
		t.Fatal(err)
	}
	appAnalyst, err := baseAnalyst.Append(appended, ranker)
	if err != nil {
		t.Fatal(err)
	}
	freshAnalyst, err := rankfair.New(full, ranker)
	if err != nil {
		t.Fatal(err)
	}
	params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 10, KMin: 5, KMax: 30, Alpha: 0.8}
	if got, want := detectJSON(t, appAnalyst, params), detectJSON(t, freshAnalyst, params); got != want {
		t.Fatal("fallback append diverges from fresh analyst")
	}
}

// TestAppendRescoredPrefixFallsBack: a table whose numeric prefix was
// altered does not extend the analyst's dataset — the merge-insert would
// binary-search a ranking the new scores no longer sort — so Append must
// take the rebuild fallback and agree with a fresh analyst.
func TestAppendRescoredPrefixFallsBack(t *testing.T) {
	baseCSV := "g,score\nA,3\nB,1\nA,2\nB,4\n"
	base, err := rankfair.ReadCSV(strings.NewReader(baseCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, same categorical codes, different scores in the prefix.
	rescoredCSV := "g,score\nA,1\nB,3\nA,4\nB,2\nA,5\n"
	rescored, err := rankfair.ReadCSV(strings.NewReader(rescoredCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranker := &rankfair.ByColumns{Keys: []rankfair.ColumnKey{{Column: "score", Descending: true}}}
	baseAnalyst, err := rankfair.New(base, ranker)
	if err != nil {
		t.Fatal(err)
	}
	baseAnalyst.Warm()
	appended, err := baseAnalyst.Append(rescored, ranker)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rankfair.New(rescored, ranker)
	if err != nil {
		t.Fatal(err)
	}
	params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 5, Alpha: 0.8}
	if got, want := detectJSON(t, appended, params), detectJSON(t, fresh, params); got != want {
		t.Fatalf("rescored-prefix append diverged from fresh analyst\ngot:  %s\nwant: %s", got, want)
	}
}

// TestAppendNaNScoresStayExact: NaN in the sort-key column is rejected by
// the incremental ranker (it breaks the comparator's strict weak order),
// so Append must fall back to a full re-rank and remain byte-identical to
// a fresh analyst over the same table.
func TestAppendNaNScoresStayExact(t *testing.T) {
	baseCSV := "g,score\nA,3\nB,NaN\nA,2\nB,4\nA,1\nB,0\n"
	base, err := rankfair.ReadCSV(strings.NewReader(baseCSV), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]string{{"A", "2.5"}, {"B", "NaN"}}
	appendedTable, err := base.AppendRows(batch)
	if err != nil {
		t.Fatal(err) // NaN parses as a float: no schema drift
	}
	ranker := &rankfair.ByColumns{Keys: []rankfair.ColumnKey{{Column: "score", Descending: true}}}
	baseAnalyst, err := rankfair.New(base, ranker)
	if err != nil {
		t.Fatal(err)
	}
	baseAnalyst.Warm()
	appAnalyst, err := baseAnalyst.Append(appendedTable, ranker)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rankfair.New(appendedTable, ranker)
	if err != nil {
		t.Fatal(err)
	}
	params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 8, Alpha: 0.8}
	if got, want := detectJSON(t, appAnalyst, params), detectJSON(t, fresh, params); got != want {
		t.Fatalf("NaN-score append diverged from fresh analyst\ngot:  %s\nwant: %s", got, want)
	}
}

// FuzzStreamAppend fuzzes the append differential: random split points and
// batch perturbations over the german bundle must keep append-then-audit
// byte-identical to fresh-upload-then-audit. Wired into the CI fuzz-smoke
// step alongside the decoder and intersection targets.
func FuzzStreamAppend(f *testing.F) {
	bundle := synth.GermanCredit(160, 29)
	var buf bytes.Buffer
	if err := rankfair.WriteCSV(&buf, bundle.Table); err != nil {
		f.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(100), uint16(4242), false)
	f.Add(uint8(40), uint16(7), true)
	f.Add(uint8(140), uint16(65535), false)
	f.Fuzz(func(t *testing.T, splitByte uint8, scoreBits uint16, descending bool) {
		n := 20 + int(splitByte)%(len(records)-21) // keep >= 20 base rows
		var baseBuf, fullBuf bytes.Buffer
		bw, fw := csv.NewWriter(&baseBuf), csv.NewWriter(&fullBuf)
		scoreCol := -1
		for j, name := range records[0] {
			if name == "credit_score" {
				scoreCol = j
			}
		}
		if scoreCol < 0 {
			t.Skip("no score column")
		}
		// Perturb the batch scores from the fuzz input so insertion
		// positions cover the whole ranking, including heavy ties.
		mutated := make([][]string, len(records))
		for i, rec := range records {
			mutated[i] = rec
			if i > n {
				cp := append([]string(nil), rec...)
				cp[scoreCol] = fmt.Sprintf("%d", int(scoreBits>>(uint(i)%8))%32)
				mutated[i] = cp
			}
		}
		if err := bw.WriteAll(mutated[:n+1]); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		if err := fw.WriteAll(mutated); err != nil {
			t.Fatal(err)
		}
		fw.Flush()
		base, err := rankfair.ReadCSV(bytes.NewReader(baseBuf.Bytes()), rankfair.CSVOptions{})
		if err != nil {
			t.Skip()
		}
		full, err := rankfair.ReadCSV(bytes.NewReader(fullBuf.Bytes()), rankfair.CSVOptions{})
		if err != nil {
			t.Skip()
		}
		appended, err := base.AppendRows(mutated[n+1:])
		if err != nil {
			t.Skip() // schema drift (e.g. a numeric column flips): rebuild territory
		}
		ranker := &rankfair.ByColumns{Keys: []rankfair.ColumnKey{{Column: "credit_score", Descending: descending}}}
		baseAnalyst, err := rankfair.New(base, ranker)
		if err != nil {
			t.Skip()
		}
		appAnalyst, err := baseAnalyst.Append(appended, ranker)
		if err != nil {
			t.Fatal(err)
		}
		freshAnalyst, err := rankfair.New(full, ranker)
		if err != nil {
			t.Fatal(err)
		}
		kMax := 30
		if kMax > full.NumRows() {
			kMax = full.NumRows()
		}
		params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 5, KMin: 5, KMax: kMax, Alpha: 0.8}
		if got, want := detectJSON(t, appAnalyst, params), detectJSON(t, freshAnalyst, params); got != want {
			t.Fatalf("append differential violated at n=%d", n)
		}
		gparams := rankfair.AuditParams{Measure: rankfair.MeasureGlobal, MinSize: 5, KMin: 5, KMax: kMax,
			Lower: rankfair.ConstantBounds(5, kMax, 3)}
		if got, want := detectJSON(t, appAnalyst, gparams), detectJSON(t, freshAnalyst, gparams); got != want {
			t.Fatalf("global append differential violated at n=%d", n)
		}
	})
}
