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

// goldenCases covers every measure on one k range. The lower-bound
// measures: a staircase Lower (so GLOBALBOUNDS rebuilds at every step of
// the bound), prop below and above α = 1 (above it, every group larger
// than |D|/α is biased at every k), and exposure, each also through its
// ITERTD baseline. The upper-bound measures and lower-specific: a
// staircase Upper one step above Lower, global-upper also through its
// baseline.
func goldenCases(minSize, kMin, kMax, base, step, width int) []goldenCase {
	lower := rankfair.StaircaseBounds(kMin, kMax, base, step, width)
	upper := rankfair.StaircaseBounds(kMin, kMax, base+step, step, width)
	var out []goldenCase
	add := func(c goldenCase, baseline bool) {
		c.params.MinSize, c.params.KMin, c.params.KMax = minSize, kMin, kMax
		out = append(out, c)
		if baseline {
			c.name += "-baseline"
			c.params.Baseline = true
			out = append(out, c)
		}
	}
	for _, c := range []goldenCase{
		{"global", rankfair.AuditParams{Measure: rankfair.MeasureGlobal, Lower: lower}},
		{"prop-0.8", rankfair.AuditParams{Measure: rankfair.MeasureProp, Alpha: 0.8}},
		{"prop-1.1", rankfair.AuditParams{Measure: rankfair.MeasureProp, Alpha: 1.1}},
		{"exposure", rankfair.AuditParams{Measure: rankfair.MeasureExposure, Alpha: 0.8}},
		{"global-upper", rankfair.AuditParams{Measure: rankfair.MeasureGlobalUpper, Upper: upper}},
	} {
		add(c, true)
	}
	for _, c := range []goldenCase{
		{"prop-upper-1.25", rankfair.AuditParams{Measure: rankfair.MeasurePropUpper, Beta: 1.25}},
		{"lower-specific", rankfair.AuditParams{Measure: rankfair.MeasureLowerSpecific, Lower: lower}},
		{"upper-general", rankfair.AuditParams{Measure: rankfair.MeasureUpperGeneral, Upper: upper}},
	} {
		add(c, false)
	}
	return out
}

// wideCases are the Section VI defaults (τs 50, k 10–49, α 0.8) for prop
// and exposure. Over all attributes of a dataset they build a biased
// frontier of thousands of members per k, most of them dominated, so they
// pin the per-k domination settle at the scale it runs in production.
func wideCases() []goldenCase {
	var out []goldenCase
	for _, c := range []goldenCase{
		{"prop-0.8", rankfair.AuditParams{Measure: rankfair.MeasureProp, Alpha: 0.8}},
		{"exposure", rankfair.AuditParams{Measure: rankfair.MeasureExposure, Alpha: 0.8}},
	} {
		c.params.MinSize, c.params.KMin, c.params.KMax = 50, 10, 49
		out = append(out, c)
	}
	return out
}

// compasCases are the Section VI defaults on a COMPAS-shaped dataset:
// wideCases plus a staircase L_k for the global measure. Its frontier
// nodes bind several attributes when a step frees them, so these cases
// pin the match sets that step-time resumption builds below them.
func compasCases() []goldenCase {
	global := goldenCase{"global", rankfair.AuditParams{Measure: rankfair.MeasureGlobal, Lower: rankfair.StaircaseBounds(10, 49, 4, 4, 12)}}
	global.params.MinSize, global.params.KMin, global.params.KMax = 50, 10, 49
	return append(wideCases(), global)
}

// goldenDigests pins the SHA-256 of Report.WriteJSON — groups, counts,
// bounds and the "stats" object — per dataset and case. A change to any
// served byte of these audits, including a search counter, fails here;
// the other report tests only compare runs of one build against each
// other.
var goldenDigests = map[string]string{
	"running/global":                "1f8a5271c778683eb53cf925211a150a702b097302526d3217a58ba10c67f947",
	"running/global-baseline":       "ac82fbdac64ffd48253d18ca5504bebae69d3b7b481cf070f354098b882eb461",
	"running/prop-0.8":              "f4d29ac59c85f7302084eb8e5d6e390858e173b26165c16ab0eb4c60e0fc33b7",
	"running/prop-0.8-baseline":     "63eb94e998ce53107a4d9e8a286b668ad69f34806cd017b09e0e330f1a0dd5f0",
	"running/prop-1.1":              "dc5f2d114e3fcf650e1137d92e7bf28649dd85cc3680e2dda0f6ecb297c21258",
	"running/prop-1.1-baseline":     "06957318631107473ec33ff44ba162d4fb68a0671f7c988eefd15dde4fb68dd9",
	"running/exposure":              "623b7c7cd0791d03f7ae856fea476a883a8f08b0447ea891cd017e26278a0032",
	"running/exposure-baseline":     "2e095b6e465849a7694f3d8f1545a367bbbc7b22a345c3a9bd2aa495382c9288",
	"running/global-upper":          "d8ca46f9054679722c062c71a95ad5b767d6918c0a078d0014570fd5b23ed496",
	"running/global-upper-baseline": "f310793595d6e8f4897072f0385d857f6abee9ef879a1583ae20980747b98ec2",
	"running/prop-upper-1.25":       "ea1b858d70210699d0a504186246cdad886a08cac85ea8e5a77d316012a2e012",
	"running/lower-specific":        "b46ca6d4e2489524593d3bf19bd6d72b3e0aa797d9a773bf428c0bddc393f4ba",
	"running/upper-general":         "6606254d3431cdbb24d80de83d59a8447ecd01fa224ec29f2933222ed8dcd4e5",
	"student/global":                "d2c84c41db9e595a92b2833064809d05f0191fb027e78a9af02a2ea648716e37",
	"student/global-baseline":       "6b38ebea2c60a9c6b707a37d5bafbea714658a5dcac8bcc51624f8cf98a858b1",
	"student/prop-0.8":              "c945bf21aad910b2a12bf978b9ad50c3322e57f21f080d384f48ca3e7a65957a",
	"student/prop-0.8-baseline":     "f3a94ddc547c0aee443042203d394e21f57f604c03522486ba919f004d805488",
	"student/prop-1.1":              "c721cffbca187931819909020117701f1104cc8762802948999742f4f4166d84",
	"student/prop-1.1-baseline":     "6938795cb7632d6cd9977ec350ec85d99d9c76920baa7005fefe464476c17c13",
	"student/exposure":              "424c57ce8b85f5dce2482450f0c20900d369b36adefed10bf9bce11664062247",
	"student/exposure-baseline":     "fccda0dde4457c5e842456a8b71f1680f6401fee777468af3dab7c761377004e",
	"student/global-upper":          "1e042ebc7f40195318c58b1dcf18ca1ef488db69bcbb96364fcae4070f370ee0",
	"student/global-upper-baseline": "2926f7cc13a114e6d264bbee09ad9cc773bc70fbd2841eb4be5133748490e30d",
	"student/prop-upper-1.25":       "5ce192183f58b755d0b43d18c888570deb3e049f5d1e91ebfa797d1ca4958d54",
	"student/lower-specific":        "e224992d4d8d33f0187786d7980a04b97a0f6240571bf460b4d33778888d3f2d",
	"student/upper-general":         "b6496bf30b376e5279943cff0cc5ae0c0321b972fbd98f58f46fd092ad4e4d2c",
	"german/global":                 "61636a57f36bc90caff53fb36eb4bd35540a5be3610dc2c3a18d67dab883ae24",
	"german/global-baseline":        "87736cf5472b5beaa2ae80e357c3193c21978bb82de7a08018dabe8238097c24",
	"german/prop-0.8":               "ebfa11b3f9c2209b9c0882cb1c926e69bcb75264550b069fb15333038c817602",
	"german/prop-0.8-baseline":      "36928b6cacfd61f6878b210963ae844dd618398d726dafe23bcef2060f046c26",
	"german/prop-1.1":               "e51d64e8d6f34f0960656af2206c2c82f1efee90d2cf88faa02fb78f5b063e8e",
	"german/prop-1.1-baseline":      "792632d0760a242c954597737b6cc4450224e391419ebc987b568d4c01952333",
	"german/exposure":               "df7a7dd6576f0c9bf7100ff001087f67a44e787efa375c557a6aebd89b0dbfaa",
	"german/exposure-baseline":      "093e44a2fbe408eb7729dabad4766f99f386bff2456e6379a7006b0da5931ee5",
	"german/global-upper":           "8ba7b72c59d17068d733a23149e105866bf92f73c6be769b8aee005062784639",
	"german/global-upper-baseline":  "094e1ab2867ee4fb196f13761d6c8eb5f8a9c72aff14047acac95aa2d7940e59",
	"german/prop-upper-1.25":        "ddb4cad23142605e716cb1cfb9a2d67c138b3b68213b16856621407960c2d1eb",
	"german/lower-specific":         "18b8c32995803f96f0f25611f4de150ccac958a9562e404b2bf342c80c61825b",
	"german/upper-general":          "932a3a4ffb963bcbd16f3eecef315ebe67b91332e532b874fa7f5cdfaa1334e9",
	"student-all/prop-0.8":          "794077fa990f9a00d3bcec8d622eb781e9d8c361ab58ed99aa088927234f4b6d",
	"student-all/exposure":          "9bc1691e5c7492d7983f069b7411cd38c1332ddc2bcd49ffa4779441fb929a74",
	"compas/prop-0.8":               "8a83989d245e4ca44854bb61035f9f0ff3e9f45dd44218b4158b61076ca0e8c4",
	"compas/exposure":               "59d50d671836430b5c4cccd0fe7ff398e2536efd68c1f054896885e3f4c52e71",
	"compas/global":                 "75c3fd65dcc5debb0e690f3543c8958ca7991189c3c5d85df80564be536de0ea",
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
		{"student-all", synth.Students(395, 1), -1, wideCases()},
		{"compas", synth.COMPAS(2000, 1), -1, compasCases()},
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
