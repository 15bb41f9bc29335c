package rankfair

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodeReference is the output contract: json.Encoder with two-space
// indentation, exactly what WriteJSON produced before the hand-rolled
// encoder.
func encodeReference(t *testing.T, rj *ReportJSON) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rj); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEncodes(t *testing.T, name string, rj *ReportJSON) {
	t.Helper()
	got := append(appendReportJSON(nil, rj), '\n')
	want := encodeReference(t, rj)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: appendReportJSON diverges from encoding/json\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestAppendReportJSONMatchesEncodingJSON holds the pooled-buffer encoder
// to byte-identity with encoding/json across the structural edge cases:
// nil vs empty slices and maps, escaped strings (quotes, HTML characters,
// control bytes, U+2028/U+2029, invalid UTF-8), and float formats across
// the 'f'/'e' switchover.
func TestAppendReportJSONMatchesEncodingJSON(t *testing.T) {
	nasty := []string{
		"plain",
		`quote " backslash \ done`,
		"<script>&amp;</script>",
		"tab\tnewline\ncarriage\rbell\x07",
		"line para sep",
		"bad utf8: \xff\xfe ok",
		"ünïcödé ✓",
		"",
	}
	cases := map[string]*ReportJSON{
		"nil-everything": {Measure: "global-lower"},
		"empty-slices":   {Measure: "x", Attributes: []string{}, Results: []KGroupsJSON{}},
		"nil-groups":     {Measure: "x", Attributes: []string{"a"}, Results: []KGroupsJSON{{K: 3}}},
		"empty-map": {Measure: "x", Attributes: []string{"a"}, Results: []KGroupsJSON{
			{K: 3, Groups: []GroupJSON{{Pattern: map[string]string{}, Key: "k"}}},
		}},
		"nasty-strings": {
			Measure:       nasty[1],
			KMin:          -3,
			KMax:          1 << 40,
			Attributes:    nasty,
			NodesExamined: math.MaxInt64,
			Results: []KGroupsJSON{{K: 7, Groups: []GroupJSON{{
				Pattern: map[string]string{
					nasty[2]: nasty[3], nasty[4]: nasty[5], "zz": "last", "aa": "first", "": "empty",
				},
				Key:      nasty[6],
				Size:     -1,
				Required: 0.30000000000000004,
				Bias:     -2.9,
			}}}},
		},
		"stats-full": {
			Measure: "prop",
			Results: []KGroupsJSON{{K: 2}},
			Stats: &SearchStatsJSON{
				Strategy:             `ind"ex`,
				NodesExpanded:        math.MaxInt64,
				PrunedSize:           -1,
				PrunedBound:          1 << 40,
				PrunedDominated:      7,
				PostingIntersections: 0,
				CountOnlyPasses:      3,
				LazyScatters:         9,
				FrontierByLevel:      []int64{1, 0, -5, math.MaxInt64},
				PhaseMS:              &PhaseTimingsJSON{Analyst: 0.125, Search: 9.9e20, Serialize: 1e-7},
			},
		},
		"stats-minimal": {
			Measure: "global",
			Stats:   &SearchStatsJSON{Strategy: "lists", FrontierByLevel: []int64{}},
		},
		"float-forms": {Measure: "f", Results: []KGroupsJSON{{K: 1, Groups: []GroupJSON{
			{Pattern: map[string]string{"a": "b"}, Required: 1e-7, Bias: -1e-7},
			{Pattern: map[string]string{"a": "b"}, Required: 9.9e20, Bias: 1e21},
			{Pattern: map[string]string{"a": "b"}, Required: -1e22, Bias: 0},
			{Pattern: map[string]string{"a": "b"}, Required: math.SmallestNonzeroFloat64, Bias: math.MaxFloat64},
			{Pattern: map[string]string{"a": "b"}, Required: 1e-9, Bias: 2.5e-45},
		}}}},
	}
	for name, rj := range cases {
		checkEncodes(t, name, rj)
	}

	// Randomized floats across magnitudes, including negative zero.
	rng := rand.New(rand.NewSource(99))
	groups := make([]GroupJSON, 0, 200)
	for i := 0; i < 200; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		g := GroupJSON{Pattern: map[string]string{}, Required: f, Bias: math.Copysign(0, -1)}
		groups = append(groups, g)
	}
	checkEncodes(t, "random-floats", &ReportJSON{Measure: "r", Results: []KGroupsJSON{{K: 1, Groups: groups}}})
}

// TestWriteJSONMatchesEncodingJSONOnRealReport pins WriteJSON end to end
// on a real detection report, including the pooled-buffer reuse across
// consecutive calls.
func TestWriteJSONMatchesEncodingJSONOnRealReport(t *testing.T) {
	a := encodeTestAnalyst(t)
	rep, err := a.Detect(AuditParams{Measure: MeasureGlobal, MinSize: 2, KMin: 3, KMax: 6, Lower: []int{1, 2, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeReference(t, rep.ToJSON())
	for round := 0; round < 3; round++ { // pooled buffer reuse
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("round %d: WriteJSON diverges from encoding/json\ngot:\n%s\nwant:\n%s", round, buf.Bytes(), want)
		}
	}
}

// TestToJSONPatternMapsIndependent pins the public ToJSON contract: the
// returned Pattern maps are caller-mutable copies, not aliases of the
// report's cached per-group label maps (which the streaming encoder
// shares internally).
func TestToJSONPatternMapsIndependent(t *testing.T) {
	a := encodeTestAnalyst(t)
	rep, err := a.Detect(AuditParams{Measure: MeasureGlobal, MinSize: 2, KMin: 3, KMax: 6, Lower: []int{1, 2, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	before := encodeReference(t, rep.ToJSON())
	j := rep.ToJSON()
	for _, kg := range j.Results {
		for i := range kg.Groups {
			for k := range kg.Groups[i].Pattern {
				kg.Groups[i].Pattern[k] = "REDACTED"
			}
		}
	}
	after := encodeReference(t, rep.ToJSON())
	if !bytes.Equal(before, after) {
		t.Error("mutating one ToJSON snapshot changed later serializations (label maps aliased)")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("REDACTED")) {
		t.Error("mutated snapshot leaked into WriteJSON output")
	}
}

// encodeTestAnalyst builds a small analyst with label strings that need
// escaping, so the real-report differential also exercises the string
// escaper.
func encodeTestAnalyst(t *testing.T) *Analyst {
	t.Helper()
	d := NewDataset()
	if err := d.AddCategorical("Group<&>", []string{`x"1`, "y z", `x"1`, "w", "y z", "w", `x"1`, "w"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCategorical("Tier", []string{"a", "b", "a", "b", "a", "b", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNumeric("score", []float64{8, 7, 6, 5, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	a, err := New(d, &ByColumns{Keys: []ColumnKey{{Column: "score", Descending: true}}})
	if err != nil {
		t.Fatal(err)
	}
	return a
}
