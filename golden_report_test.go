package rankfair_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rankfair"
	"rankfair/internal/synth"
)

// goldenCase is one audit whose served bytes are pinned.
type goldenCase struct {
	name   string
	params rankfair.AuditParams
}

// goldenCases covers the three lower-bound measures on one k range: a
// staircase Lower (so GLOBALBOUNDS rebuilds at every step of the bound),
// prop below and above α = 1 (above it, every group larger than |D|/α is
// biased at every k), and exposure, each also through its ITERTD
// baseline.
func goldenCases(minSize, kMin, kMax, base, step, width int) []goldenCase {
	lower := rankfair.StaircaseBounds(kMin, kMax, base, step, width)
	var out []goldenCase
	for _, c := range []goldenCase{
		{"global", rankfair.AuditParams{Measure: rankfair.MeasureGlobal, Lower: lower}},
		{"prop-0.8", rankfair.AuditParams{Measure: rankfair.MeasureProp, Alpha: 0.8}},
		{"prop-1.1", rankfair.AuditParams{Measure: rankfair.MeasureProp, Alpha: 1.1}},
		{"exposure", rankfair.AuditParams{Measure: rankfair.MeasureExposure, Alpha: 0.8}},
	} {
		c.params.MinSize, c.params.KMin, c.params.KMax = minSize, kMin, kMax
		out = append(out, c)
		c.name += "-baseline"
		c.params.Baseline = true
		out = append(out, c)
	}
	return out
}

// goldenDigests pins the SHA-256 of Report.WriteJSON — groups, counts,
// bounds and the "stats" object — per dataset and case. A change to any
// served byte of these audits, including a search counter, fails here;
// the other report tests only compare runs of one build against each
// other.
var goldenDigests = map[string]string{
	"running/global":            "1f8a5271c778683eb53cf925211a150a702b097302526d3217a58ba10c67f947",
	"running/global-baseline":   "ac82fbdac64ffd48253d18ca5504bebae69d3b7b481cf070f354098b882eb461",
	"running/prop-0.8":          "f4d29ac59c85f7302084eb8e5d6e390858e173b26165c16ab0eb4c60e0fc33b7",
	"running/prop-0.8-baseline": "63eb94e998ce53107a4d9e8a286b668ad69f34806cd017b09e0e330f1a0dd5f0",
	"running/prop-1.1":          "dc5f2d114e3fcf650e1137d92e7bf28649dd85cc3680e2dda0f6ecb297c21258",
	"running/prop-1.1-baseline": "06957318631107473ec33ff44ba162d4fb68a0671f7c988eefd15dde4fb68dd9",
	"running/exposure":          "623b7c7cd0791d03f7ae856fea476a883a8f08b0447ea891cd017e26278a0032",
	"running/exposure-baseline": "2e095b6e465849a7694f3d8f1545a367bbbc7b22a345c3a9bd2aa495382c9288",
	"student/global":            "d2c84c41db9e595a92b2833064809d05f0191fb027e78a9af02a2ea648716e37",
	"student/global-baseline":   "6b38ebea2c60a9c6b707a37d5bafbea714658a5dcac8bcc51624f8cf98a858b1",
	"student/prop-0.8":          "c945bf21aad910b2a12bf978b9ad50c3322e57f21f080d384f48ca3e7a65957a",
	"student/prop-0.8-baseline": "f3a94ddc547c0aee443042203d394e21f57f604c03522486ba919f004d805488",
	"student/prop-1.1":          "c721cffbca187931819909020117701f1104cc8762802948999742f4f4166d84",
	"student/prop-1.1-baseline": "6938795cb7632d6cd9977ec350ec85d99d9c76920baa7005fefe464476c17c13",
	"student/exposure":          "424c57ce8b85f5dce2482450f0c20900d369b36adefed10bf9bce11664062247",
	"student/exposure-baseline": "fccda0dde4457c5e842456a8b71f1680f6401fee777468af3dab7c761377004e",
	"german/global":             "61636a57f36bc90caff53fb36eb4bd35540a5be3610dc2c3a18d67dab883ae24",
	"german/global-baseline":    "87736cf5472b5beaa2ae80e357c3193c21978bb82de7a08018dabe8238097c24",
	"german/prop-0.8":           "ebfa11b3f9c2209b9c0882cb1c926e69bcb75264550b069fb15333038c817602",
	"german/prop-0.8-baseline":  "36928b6cacfd61f6878b210963ae844dd618398d726dafe23bcef2060f046c26",
	"german/prop-1.1":           "e51d64e8d6f34f0960656af2206c2c82f1efee90d2cf88faa02fb78f5b063e8e",
	"german/prop-1.1-baseline":  "792632d0760a242c954597737b6cc4450224e391419ebc987b568d4c01952333",
	"german/exposure":           "df7a7dd6576f0c9bf7100ff001087f67a44e787efa375c557a6aebd89b0dbfaa",
	"german/exposure-baseline":  "093e44a2fbe408eb7729dabad4766f99f386bff2456e6379a7006b0da5931ee5",
}

// TestGoldenReportDigests runs every golden case serially and at three
// workers and checks each report's bytes against the pinned digest.
func TestGoldenReportDigests(t *testing.T) {
	fixtures := []struct {
		name  string
		b     *synth.Bundle
		attrs int
		cases []goldenCase
	}{
		{"running", synth.RunningExample(), -1, goldenCases(2, 2, 14, 1, 1, 4)},
		{"student", synth.Students(395, 2), 7, goldenCases(15, 10, 80, 4, 4, 12)},
		{"german", synth.GermanCredit(400, 3), 7, goldenCases(15, 10, 80, 4, 4, 12)},
	}
	seen := 0
	for _, fx := range fixtures {
		in, err := fx.b.InputAttrs(fx.attrs)
		if err != nil {
			t.Fatal(err)
		}
		a, err := rankfair.NewFromInput(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range fx.cases {
			id := fx.name + "/" + c.name
			want, ok := goldenDigests[id]
			if !ok {
				t.Fatalf("%s: no pinned digest", id)
			}
			seen++
			for _, w := range []int{1, 3} {
				p := c.params
				p.Workers = w
				rep, err := a.Detect(p)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", id, w, err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s workers=%d: report digest %s, pinned %s", id, w, got, want)
				}
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Errorf("ran %d golden cases, %d digests pinned", seen, len(goldenDigests))
	}
}
