package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rankfair"
	"rankfair/internal/store"
)

// measureAudits is one audit per measure over biasedCSV(200).
func measureAudits() []rankfair.AuditParams {
	return []rankfair.AuditParams{
		{Measure: "global", MinSize: 10, KMin: 5, KMax: 20, Lower: constants(5, 20, 2)},
		{Measure: "prop", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8},
		{Measure: "global-upper", MinSize: 10, KMin: 5, KMax: 20, Upper: constants(5, 20, 3)},
		{Measure: "prop-upper", MinSize: 10, KMin: 5, KMax: 20, Beta: 1.25},
		{Measure: "exposure", MinSize: 10, KMin: 5, KMax: 20, Alpha: 0.8},
	}
}

// serveAudit submits one audit over HTTP, waits for it, and returns its
// final view as GET /v1/audits/{id} serves it plus the raw report body.
func serveAudit(t *testing.T, svc *Service, ts *httptest.Server, id string, params rankfair.AuditParams) (JobView, []byte) {
	t.Helper()
	var view JobView
	req := AuditRequest{Dataset: id, Ranker: scoreRanker(), Params: params}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/audits", req, &view); code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", params.Measure, code)
	}
	awaitJob(t, svc, view.ID)
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/audits/"+view.ID, nil, &view); code != http.StatusOK {
		t.Fatalf("GET audit %s: status %d", view.ID, code)
	}
	resp, err := http.Get(ts.URL + "/v1/audits/" + view.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report %s: status %d: %s", view.ID, resp.StatusCode, raw)
	}
	return view, raw
}

// referenceBody computes one audit with the library alone and encodes it
// the way the report endpoint always has: indented encoding/json plus a
// newline.
func referenceBody(t *testing.T, csv []byte, params rankfair.AuditParams) []byte {
	t.Helper()
	table, err := rankfair.ReadCSV(bytes.NewReader(csv), rankfair.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := scoreRanker()
	ranker, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	analyst, err := rankfair.New(table, ranker)
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyst.DetectCtx(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(report.ToJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// TestServedReportWireFormat is the served-bytes differential: for every
// measure, the report body of a fresh compute, an in-memory hit and a
// post-restart hit equals the library's report through encoding/json.
func TestServedReportWireFormat(t *testing.T) {
	dir := t.TempDir()
	csv := biasedCSV(200)
	audits := measureAudits()
	want := make([][]byte, len(audits))
	for i, p := range audits {
		want[i] = referenceBody(t, csv, p)
	}

	svc1, ts1, stop1 := persistServer(t, dir, true)
	info := upload(t, ts1, csv)
	for i, p := range audits {
		for _, phase := range []struct {
			name string
			hit  bool
		}{{"fresh", false}, {"memory-hit", true}} {
			view, body := serveAudit(t, svc1, ts1, info.ID, p)
			if view.CacheHit != phase.hit {
				t.Errorf("%s %s: cache_hit = %v, want %v", p.Measure, phase.name, view.CacheHit, phase.hit)
			}
			if !bytes.Equal(body, want[i]) {
				t.Errorf("%s %s: served body differs from encoding/json:\n%s\nwant:\n%s", p.Measure, phase.name, body, want[i])
			}
		}
	}
	stop1()

	svc2, ts2, _ := persistServer(t, dir, true)
	for i, p := range audits {
		view, body := serveAudit(t, svc2, ts2, info.ID, p)
		if !view.CacheHit {
			t.Errorf("%s restart-hit: recomputed instead of serving the persisted result", p.Measure)
		}
		if !bytes.Equal(body, want[i]) {
			t.Errorf("%s restart-hit: served body differs from encoding/json:\n%s\nwant:\n%s", p.Measure, body, want[i])
		}
	}
}

// TestPersistLazyResultLoad: boot registers persisted results without
// reading a blob; the first hit on each key reads its blob once, later
// hits read nothing, and every served body and job summary matches the
// one served before the restart.
func TestPersistLazyResultLoad(t *testing.T) {
	dir := t.TempDir()
	audits := measureAudits()

	svc1, ts1, stop1 := persistServer(t, dir, true)
	info := upload(t, ts1, biasedCSV(200))
	views := make([]JobView, len(audits))
	bodies := make([][]byte, len(audits))
	for i, p := range audits {
		views[i], bodies[i] = serveAudit(t, svc1, ts1, info.ID, p)
	}
	stop1()

	svc2, ts2, _ := persistServer(t, dir, true)
	if reads := svc2.store.Stats().BlobReads; reads != 0 {
		t.Fatalf("boot read %d blobs, want 0", reads)
	}
	if loaded := svc2.obs.storeCacheLoaded.Value(); loaded != int64(len(audits)) {
		t.Errorf("storeCacheLoaded = %d, want %d", loaded, len(audits))
	}
	// Page the dataset in first, so the counts below are result reads only.
	if _, code := getDatasetInfo(t, ts2, info.ID); code != http.StatusOK {
		t.Fatalf("GET dataset: status %d", code)
	}
	base := svc2.store.Stats().BlobReads

	for round := 1; round <= 2; round++ {
		for i, p := range audits {
			view, body := serveAudit(t, svc2, ts2, info.ID, p)
			if !view.CacheHit {
				t.Errorf("round %d %s: cache_hit = false, want a persisted hit", round, p.Measure)
			}
			if !bytes.Equal(body, bodies[i]) {
				t.Errorf("round %d %s: body differs from the one served before the restart", round, p.Measure)
			}
			if view.NodesExamined != views[i].NodesExamined || view.FullSearches != views[i].FullSearches ||
				view.TotalGroups != views[i].TotalGroups {
				t.Errorf("round %d %s: summary %d/%d/%d, want %d/%d/%d", round, p.Measure,
					view.NodesExamined, view.FullSearches, view.TotalGroups,
					views[i].NodesExamined, views[i].FullSearches, views[i].TotalGroups)
			}
		}
		if reads := svc2.store.Stats().BlobReads - base; reads != int64(len(audits)) {
			t.Errorf("after round %d: %d result blob reads, want %d (one per key)", round, reads, len(audits))
		}
	}
	if misses := svc2.Cache().Stats().Misses; misses != 0 {
		t.Errorf("%d audits recomputed after the restart, want 0", misses)
	}
}

// TestPersistLazyResultConcurrentFirstHits: concurrent first hits on one
// persisted key share a single blob read and serve the same bytes.
func TestPersistLazyResultConcurrentFirstHits(t *testing.T) {
	dir := t.TempDir()
	_, ts1, stop1 := persistServer(t, dir, true)
	info := upload(t, ts1, biasedCSV(200))
	want := runAuditReport(t, ts1, info.ID)
	stop1()

	svc, ts, _ := persistServer(t, dir, true)
	if _, code := getDatasetInfo(t, ts, info.ID); code != http.StatusOK {
		t.Fatalf("GET dataset: status %d", code)
	}
	base := svc.store.Stats().BlobReads
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view, err := svc.SubmitAudit(AuditRequest{Dataset: info.ID, Ranker: scoreRanker(), Params: streamAuditParams()})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		if view := awaitJob(t, svc, id); !view.CacheHit {
			t.Errorf("%s: cache_hit = false", id)
		}
		res, _, _ := svc.Jobs().Report(id)
		if !bytes.Equal(res.Body, want) {
			t.Errorf("%s: body differs from the one served before the restart", id)
		}
	}
	if reads := svc.store.Stats().BlobReads - base; reads != 1 {
		t.Errorf("%d result blob reads for one key, want 1", reads)
	}
}

// cacheBlobPath returns the on-disk path of the blob the manifest's last
// "cache" record points at.
func cacheBlobPath(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	blob := ""
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec struct{ Op, Blob string }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == "cache" {
			blob = rec.Blob
		}
	}
	if blob == "" {
		t.Fatal("manifest holds no cache record")
	}
	return filepath.Join(dir, "blobs", blob[:2], blob)
}

// TestPersistResultFallback: a persisted result whose blob fails its
// content check, or that predates the summary-line format, is dropped
// from the cache, the audit recomputes the correct report and persists it
// again, and the next restart serves it as a cache hit.
func TestPersistResultFallback(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, body []byte)
		// rewrite: the recomputed result lands on the damaged blob's name.
		rewrite bool
	}{
		{
			// Same size, different content: passes the boot stat check and
			// fails the sha256 check on first read.
			name:    "corrupt-same-size",
			rewrite: true,
			damage: func(t *testing.T, dir string, _ []byte) {
				path := cacheBlobPath(t, dir)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)-3] ^= 0x01
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The compact ReportJSON the store held before results were
			// persisted as response bytes: a valid blob with no summary line.
			name: "pre-summary-format",
			damage: func(t *testing.T, dir string, body []byte) {
				var rj rankfair.ReportJSON
				if err := json.Unmarshal(body, &rj); err != nil {
					t.Fatal(err)
				}
				old, err := json.Marshal(&rj)
				if err != nil {
					t.Fatal(err)
				}
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				keys := st.CacheKeys()
				if len(keys) != 1 {
					t.Fatalf("store holds %d result keys, want 1", len(keys))
				}
				if err := st.PutCache(keys[0], old); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			params := streamAuditParams()
			svc1, ts1, stop1 := persistServer(t, dir, true)
			info := upload(t, ts1, biasedCSV(40))
			_, want := serveAudit(t, svc1, ts1, info.ID, params)
			stop1()
			tc.damage(t, dir, want)

			svc2, ts2, stop2 := persistServer(t, dir, true)
			view, body := serveAudit(t, svc2, ts2, info.ID, params)
			if view.CacheHit {
				t.Error("a bad persisted result was served as a cache hit")
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("fallback served a different report:\n%s\nwant:\n%s", body, want)
			}
			if cs := svc2.Cache().Stats(); cs.Misses != 1 || cs.Entries != 1 {
				t.Errorf("cache stats = %+v, want 1 miss and 1 entry", cs)
			}
			ranker := scoreRanker()
			key := info.Hash + "|" + ranker.CacheKey() + "|" + params.CacheKey()
			if val, ok := svc2.Cache().Get(key); !ok {
				t.Error("recomputed result missing from the cache")
			} else if _, bad := val.(*persistedResult); bad {
				t.Error("the bad persisted entry is still in the cache")
			}
			if view, body := serveAudit(t, svc2, ts2, info.ID, params); !view.CacheHit || !bytes.Equal(body, want) {
				t.Errorf("repeat after fallback: cache_hit = %v, body equal = %v", view.CacheHit, bytes.Equal(body, want))
			}
			if writes := svc2.store.Stats().BlobWrites; tc.rewrite && writes == 0 {
				t.Error("the recompute did not rewrite the bad persisted result")
			}
			stop2()

			// The recompute rewrote the entry in place (a same-size corrupt
			// blob keeps its content-hash name, so the store must verify
			// before adopting it), and the next restart serves it from the
			// store without a search or another write.
			svc3, ts3, _ := persistServer(t, dir, true)
			if view, body := serveAudit(t, svc3, ts3, info.ID, params); !view.CacheHit || !bytes.Equal(body, want) {
				t.Errorf("after rewrite: cache_hit = %v, body equal = %v", view.CacheHit, bytes.Equal(body, want))
			}
			if writes := svc3.store.Stats().BlobWrites; writes != 0 {
				t.Errorf("serving the rewritten result wrote %d blobs, want 0", writes)
			}
		})
	}
}
