package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"rankfair"
	"rankfair/internal/obs"
)

// AuditResult is one finished audit as the service caches, persists and
// serves it: the report encoded once into its response body, plus the
// summary the job view and the wide event read without decoding the body.
type AuditResult struct {
	// Body is the GET /v1/audits/{id}/report response body, byte for byte.
	Body    []byte
	Summary ResultSummary
}

// ResultSummary is the part of a report the service reads after encoding
// it. It is the first line of every persisted result blob, so its JSON
// names are on-disk schema: change them only additively.
type ResultSummary struct {
	NodesExamined int64                     `json:"nodes_examined"`
	FullSearches  int                       `json:"full_searches"`
	TotalGroups   int                       `json:"total_groups"`
	Stats         *rankfair.SearchStatsJSON `json:"stats,omitempty"`
}

// encodeResult encodes a computed report into the bytes the report
// endpoint serves: encoding/json's two-space indented form plus a newline,
// written by the report's hand-rolled encoder. The summary is read off the
// report itself, so nothing is decoded or encoded twice.
func encodeResult(report *rankfair.Report) (*AuditResult, error) {
	var body bytes.Buffer
	if err := report.WriteJSON(&body); err != nil {
		return nil, fmt.Errorf("service: encoding report: %w", err)
	}
	sum := ResultSummary{
		NodesExamined: report.Stats.NodesExamined,
		FullSearches:  report.Stats.FullSearches,
		Stats:         report.SearchStatsJSON(),
	}
	for k := report.KMin; k <= report.KMax; k++ {
		sum.TotalGroups += len(report.At(k))
	}
	return &AuditResult{Body: body.Bytes(), Summary: sum}, nil
}

// blob renders the persisted form of a result: the summary as one compact
// JSON line, then the body unchanged.
func (r *AuditResult) blob() ([]byte, error) {
	line, err := json.Marshal(r.Summary)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result summary: %w", err)
	}
	out := make([]byte, 0, len(line)+1+len(r.Body))
	out = append(append(out, line...), '\n')
	return append(out, r.Body...), nil
}

// decodeResultBlob parses a persisted result blob. The body aliases raw;
// only the summary line is decoded.
func decodeResultBlob(raw []byte) (*AuditResult, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 || nl == len(raw)-1 {
		// The compact ReportJSON blobs written before results were persisted
		// as response bytes: encoding/json escapes every newline inside
		// strings, so they hold no raw newline at all.
		return nil, errors.New("service: persisted result has no summary line")
	}
	var sum ResultSummary
	if err := json.Unmarshal(raw[:nl], &sum); err != nil {
		return nil, fmt.Errorf("service: decoding result summary: %w", err)
	}
	return &AuditResult{Body: raw[nl+1:], Summary: sum}, nil
}

// persistedResult is a result-cache entry registered from the store at
// boot and not read yet. The first audit that hits it reads, verifies and
// parses the blob; every later hit shares that one outcome.
type persistedResult struct {
	key  string
	once sync.Once
	res  *AuditResult
	err  error
}

// cachedResult resolves a result-cache value, reading a persisted entry's
// blob on its first use. The read runs under the store's transient retry
// and lands on the reading job's trace as a "result-read" span.
func (s *Service) cachedResult(ctx context.Context, val any) (*AuditResult, error) {
	p, ok := val.(*persistedResult)
	if !ok {
		return val.(*AuditResult), nil
	}
	p.once.Do(func() {
		_, sp := obs.StartSpan(ctx, "result-read")
		defer sp.Finish()
		raw, err := s.storeRead(func() ([]byte, error) { return s.store.CacheValue(p.key) })
		if err == nil {
			p.res, err = decodeResultBlob(raw)
		}
		p.err = err
	})
	return p.res, p.err
}
