package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"rankfair"
	"rankfair/internal/dataset"
	"rankfair/internal/rank"
	"rankfair/internal/service"
	"rankfair/internal/synth"
)

// dataSeed fixes the synthetic stand-ins for the paper's datasets. The
// lattice-search cost of one realization differs from another's by up to
// 2x (COMPAS prop audits took 564-1028 ms over data seeds 1-8), which
// would swamp any regression bound, so every run audits the same
// realizations — as the paper audits fixed real datasets — and --seed
// drives everything else: request order, parameter variants, the rows
// appended or duplicated, and arrival times.
const dataSeed = 1

// source is one generated dataset: its CSV (header first, one record per
// line) and the ranker rankfaird binds to it.
type source struct {
	name   string
	csv    []byte
	ranker service.RankerSpec
}

// header returns the CSV header line, newline included.
func (s *source) header() []byte { return s.csv[:bytes.IndexByte(s.csv, '\n')+1] }

// records returns the data lines, each with its newline.
func (s *source) records() [][]byte {
	body := s.csv[len(s.header()):]
	out := make([][]byte, 0, bytes.Count(body, []byte{'\n'}))
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n') + 1
		out = append(out, body[:i])
		body = body[i:]
	}
	return out
}

// prefix returns a source holding the header and the first n records.
func (s *source) prefix(n int) *source {
	raw := append([]byte(nil), s.header()...)
	for _, rec := range s.records()[:n] {
		raw = append(raw, rec...)
	}
	return s.with(raw)
}

// with returns the source with its CSV replaced.
func (s *source) with(csv []byte) *source { return &source{name: s.name, csv: csv, ranker: s.ranker} }

// generate builds one of the paper-shaped datasets. COMPAS is ranked by
// the paper's linear score; rankfaird ranks by numeric columns only, so
// the score is written out as a column and ranked on.
func generate(name string, rows int, seed int64) (*source, error) {
	var b *synth.Bundle
	var key string
	switch name {
	case "student":
		b, key = synth.Students(rows, seed), "G3_score"
	case "german":
		b, key = synth.GermanCredit(rows, seed), "credit_score"
	case "compas":
		b, key = synth.COMPAS(rows, seed), "score"
		scores, err := b.Ranker.(*rank.Linear).Scores(b.Table)
		if err != nil {
			return nil, err
		}
		if err := b.Table.AddNumeric(key, scores); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, b.Table); err != nil {
		return nil, err
	}
	return &source{
		name:   name,
		csv:    buf.Bytes(),
		ranker: service.RankerSpec{Columns: []service.ColumnKeySpec{{Column: key, Descending: true}}},
	}, nil
}

// The Section VI defaults: τs = 50, k in [10, 49], α = 0.8, and the
// global lower bounds as a staircase starting at 10 and rising by 10
// every 10 positions.
const (
	defMinSize = 50
	defKMin    = 10
	defKMax    = 49
	defAlpha   = 0.8
)

func auditParams(measure string, minSize int) rankfair.AuditParams {
	p := rankfair.AuditParams{Measure: measure, MinSize: minSize, KMin: defKMin, KMax: defKMax}
	if measure == rankfair.MeasureGlobal {
		p.Lower = rankfair.StaircaseBounds(defKMin, defKMax, 10, 10, 10)
	} else {
		p.Alpha = defAlpha
	}
	return p
}

// variant returns the i-th distinct variant of p, for i below 1000, so
// repeated requests of one class each miss the result cache while doing
// nearly the same work: prop and exposure shift α by i·1e-9; global,
// whose cache key ignores α and β, raises the last staircase step by
// i mod 10, extends the k range by (i/10) mod 10 and starts it earlier by
// (i/100) mod 10. Variant 0 is p itself.
func variant(p rankfair.AuditParams, i int) rankfair.AuditParams {
	if p.Measure != rankfair.MeasureGlobal {
		p.Alpha += float64(i) * 1e-9
		return p
	}
	p.KMin -= (i / 100) % 10
	p.KMax += (i / 10) % 10
	lower := rankfair.StaircaseBounds(p.KMin, p.KMax, 10, 10, 10)
	top := lower[len(lower)-1]
	for j := range lower {
		if lower[j] == top {
			lower[j] += i % 10
		}
	}
	p.Lower = lower
	return p
}

// rounds deals op indices onto slots in rounds: each round is a seeded
// permutation of the slots, so every prefix of the op sequence holds each
// slot within one of its share. With an odd number of equal slots the
// median falls inside one request class instead of on the boundary
// between two, which is what makes it repeatable across seeds.
type rounds struct {
	mu    sync.Mutex
	perms [][]int
	rng   *rand.Rand
	n     int
}

func newRounds(rng *rand.Rand, slots int) *rounds { return &rounds{rng: rng, n: slots} }

// slot returns the slot of op i and the round it falls in.
func (r *rounds) slot(i int) (slot, round int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	round = i / r.n
	for len(r.perms) <= round {
		r.perms = append(r.perms, r.rng.Perm(r.n))
	}
	return r.perms[round][i%r.n], round
}

// canonicalReport renders a report for comparison: decoded, its stats
// (which depend on the engine route and, for a cache hit, on the run that
// computed it) removed, and re-encoded the way the daemon encodes.
func canonicalReport(raw []byte) ([]byte, error) {
	var rj rankfair.ReportJSON
	if err := json.Unmarshal(raw, &rj); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return canonicalJSON(&rj)
}

func canonicalJSON(rj *rankfair.ReportJSON) ([]byte, error) {
	stripped := *rj
	stripped.Stats = nil
	return json.MarshalIndent(&stripped, "", "  ")
}

// newAnalyst decodes a CSV and ranks it, as cmd/biasdetect does.
func newAnalyst(csv []byte, spec service.RankerSpec) (*rankfair.Analyst, error) {
	table, err := rankfair.ReadCSV(bytes.NewReader(csv), rankfair.CSVOptions{})
	if err != nil {
		return nil, err
	}
	ranker, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return rankfair.New(table, ranker)
}

// libraryReport computes a report in process and returns its canonical
// form.
func libraryReport(csv []byte, spec service.RankerSpec, p rankfair.AuditParams) ([]byte, error) {
	a, err := newAnalyst(csv, spec)
	if err != nil {
		return nil, err
	}
	rep, err := a.Detect(p)
	if err != nil {
		return nil, err
	}
	return canonicalJSON(rep.ToJSON())
}

// sameReport compares a served report with the library's canonical one.
func sameReport(served, want []byte) error {
	got, err := canonicalReport(served)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served report (%d bytes) differs from the library's (%d bytes)", len(got), len(want))
	}
	return nil
}
