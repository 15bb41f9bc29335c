package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rankfair"
	"rankfair/internal/dataset"
)

// decodeEnvelope asserts a response body carries the typed error envelope
// — {"error":{"code":...,"message":...,"request_id":...}} — and never the
// legacy {"error":"<string>"} shape, then returns the decoded error.
func decodeEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]json.RawMessage
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatalf("error body is not JSON: %q: %v", raw, err)
	}
	errRaw, ok := generic["error"]
	if !ok {
		t.Fatalf("error body has no \"error\" key: %s", raw)
	}
	trimmed := bytes.TrimSpace(errRaw)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		t.Fatalf("legacy error shape (error is %s, want object): %s", trimmed, raw)
	}
	var e APIError
	if err := json.Unmarshal(errRaw, &e); err != nil {
		t.Fatalf("decoding error object %s: %v", errRaw, err)
	}
	if e.Code == "" {
		t.Errorf("error envelope missing code: %s", raw)
	}
	if e.Message == "" {
		t.Errorf("error envelope missing message: %s", raw)
	}
	if e.RequestID == "" {
		t.Errorf("error envelope missing request_id: %s", raw)
	} else if got := resp.Header.Get("X-Request-ID"); got != e.RequestID {
		t.Errorf("request_id %q != X-Request-ID header %q", e.RequestID, got)
	}
	return e
}

// TestErrorEnvelopeAllHandlers drives every error-producing path of the
// route table and asserts each one emits the typed envelope with its
// stable code — no handler may emit the legacy string shape.
func TestErrorEnvelopeAllHandlers(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4, QueueDepth: 32, MaxUploadBytes: 1 << 20})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	info := upload(t, ts, biasedCSV(40))

	auditJSON := func(ds string) string {
		return fmt.Sprintf(`{"dataset":%q,"ranker":{"columns":[{"column":"score","descending":true}]},"params":{"measure":"prop","min_size":5,"kmin":5,"kmax":20,"alpha":0.8}}`, ds)
	}

	for _, tc := range []struct {
		name        string
		method      string
		path        string
		contentType string
		body        string
		wantStatus  int
		wantCode    string
	}{
		{"upload-empty-body", "POST", "/v1/datasets", "text/csv", "", 400, CodeEmptyBody},
		{"upload-bad-csv", "POST", "/v1/datasets", "text/csv", "a,b\n1\n", 400, CodeInvalidRequest},
		{"upload-bad-comma", "POST", "/v1/datasets?comma=ab", "text/csv", tinyCSV, 400, CodeInvalidRequest},
		{"upload-too-large", "POST", "/v1/datasets", "text/csv", strings.Repeat("x", 2<<20), 413, CodeBodyTooLarge},
		{"dataset-get-missing", "GET", "/v1/datasets/ds-missing", "", "", 404, "dataset_not_found"},
		{"dataset-delete-missing", "DELETE", "/v1/datasets/ds-missing", "", "", 404, "dataset_not_found"},
		{"dataset-list-bad-limit", "GET", "/v1/datasets?limit=zero", "", "", 400, CodeInvalidRequest},
		{"dataset-list-bad-token", "GET", "/v1/datasets?page_token=%21%21", "", "", 400, CodeInvalidRequest},
		{"append-missing-dataset", "POST", "/v1/datasets/ds-missing/rows", "text/csv", "F,N,1\n", 404, "dataset_not_found"},
		{"append-empty-batch", "POST", "/v1/datasets/" + info.ID + "/rows", "text/csv", "", 400, CodeEmptyBody},
		{"append-bad-batch", "POST", "/v1/datasets/" + info.ID + "/rows", "text/csv", "too,many,cols,here\n", 400, CodeInvalidRequest},
		{"append-bad-content-type", "POST", "/v1/datasets/" + info.ID + "/rows", "application/xml", "<r/>", 400, CodeInvalidRequest},
		{"audit-malformed-json", "POST", "/v1/audits", "application/json", "{nope", 400, CodeInvalidJSON},
		{"audit-unknown-field", "POST", "/v1/audits", "application/json", `{"bogus":1}`, 400, CodeInvalidJSON},
		{"audit-missing-dataset", "POST", "/v1/audits", "application/json", auditJSON("ds-missing"), 404, "dataset_not_found"},
		{"audit-bad-params", "POST", "/v1/audits", "application/json", `{"dataset":"` + info.ID + `","ranker":{"columns":[{"column":"score"}]},"params":{"measure":"bogus"}}`, 400, CodeInvalidRequest},
		{"audit-decreasing-lower", "POST", "/v1/audits", "application/json", `{"dataset":"` + info.ID + `","ranker":{"columns":[{"column":"score","descending":true}]},"params":{"measure":"global","min_size":5,"kmin":5,"kmax":7,"lower":[3,2,2]}}`, 400, CodeInvalidRequest},
		{"audit-get-missing", "GET", "/v1/audits/job-999999", "", "", 404, "audit_not_found"},
		{"audit-cancel-missing", "DELETE", "/v1/audits/job-999999", "", "", 404, "audit_not_found"},
		{"report-missing", "GET", "/v1/audits/job-999999/report", "", "", 404, "audit_not_found"},
		{"trace-missing", "GET", "/v1/audits/job-999999/trace", "", "", 404, "trace_not_found"},
		{"audits-bad-state", "GET", "/v1/audits?state=bogus", "", "", 400, CodeInvalidRequest},
		{"audits-bad-limit", "GET", "/v1/audits?limit=-3", "", "", 400, CodeInvalidRequest},
		{"repair-malformed-json", "POST", "/v1/repair", "application/json", "{nope", 400, CodeInvalidJSON},
		{"repair-missing-dataset", "POST", "/v1/repair", "application/json", `{"dataset":"ds-missing","ranker":{"columns":[{"column":"score"}]},"attr":"sex","k":5}`, 404, "dataset_not_found"},
		{"explain-malformed-json", "POST", "/v1/explain", "application/json", "{nope", 400, CodeInvalidJSON},
		{"explain-missing-group", "POST", "/v1/explain", "application/json", `{"dataset":"` + info.ID + `","ranker":{"columns":[{"column":"score"}]},"k":5}`, 400, CodeInvalidRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if e := decodeEnvelope(t, resp); e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
		})
	}
}

// TestErrorEnvelopeReportConflicts covers the 409 report codes by driving
// jobs into each non-done terminal and pre-terminal state directly.
func TestErrorEnvelopeReportConflicts(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	get := func(t *testing.T, path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 2, Alpha: 0.8}

	// A job parked on its context: running until canceled.
	parked, err := svc.Jobs().Submit("x", params, func(ctx context.Context) (*AuditResult, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := get(t, "/v1/audits/"+parked.ID+"/report")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("running report: status %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != CodeAuditNotReady {
		t.Errorf("running report code = %q, want %q", e.Code, CodeAuditNotReady)
	}
	resp.Body.Close()

	// Cancel it and the report flips to audit_canceled.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/audits/"+parked.ID, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if _, err := svc.Jobs().Wait(context.Background(), parked.ID); err != nil {
		t.Fatal(err)
	}
	resp = get(t, "/v1/audits/"+parked.ID+"/report")
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusConflict || e.Code != CodeAuditCanceled {
		t.Errorf("canceled report: status %d code %q", resp.StatusCode, e.Code)
	}
	resp.Body.Close()

	// A job that fails.
	failed, err := svc.Jobs().Submit("x", params, func(context.Context) (*AuditResult, bool, error) {
		return nil, false, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Wait(context.Background(), failed.ID); err != nil {
		t.Fatal(err)
	}
	resp = get(t, "/v1/audits/"+failed.ID+"/report")
	if e := decodeEnvelope(t, resp); resp.StatusCode != http.StatusConflict || e.Code != CodeAuditFailed {
		t.Errorf("failed report: status %d code %q", resp.StatusCode, e.Code)
	}
	resp.Body.Close()
}

// TestErrorEnvelopeQueueFull fills the worker and the queue with parked
// jobs, then submits over HTTP: the rejection must carry queue_full.
func TestErrorEnvelopeQueueFull(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})
	info := upload(t, ts, biasedCSV(20))

	park := func(ctx context.Context) (*AuditResult, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	params := rankfair.AuditParams{Measure: rankfair.MeasureProp, MinSize: 1, KMin: 1, KMax: 2, Alpha: 0.8}
	for i := 0; i < 2; i++ { // one running, one queued
		if _, err := svc.Jobs().Submit("x", params, park); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/audits", "application/json",
		strings.NewReader(fmt.Sprintf(`{"dataset":%q,"ranker":{"columns":[{"column":"score","descending":true}]},"params":{"measure":"prop","min_size":5,"kmin":5,"kmax":10,"alpha":0.8}}`, info.ID)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != CodeQueueFull {
		t.Errorf("code = %q, want %q", e.Code, CodeQueueFull)
	}
}

// TestWriteErrMappings unit-tests the error-to-code table, including the
// defensive mappings no HTTP path can currently reach.
func TestWriteErrMappings(t *testing.T) {
	for _, tc := range []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"not-found", &NotFoundError{Resource: "dataset", ID: "x"}, 404, "dataset_not_found"},
		{"schema-drift", &BadRequestError{Err: fmt.Errorf("append: %w", dataset.ErrSchemaDrift)}, 400, CodeSchemaDrift},
		{"bad-request", &BadRequestError{Err: errors.New("nope")}, 400, CodeInvalidRequest},
		{"queue-full", fmt.Errorf("submit: %w", ErrQueueFull), 503, CodeQueueFull},
		{"storage", &StorageError{Err: errors.New("disk gone")}, 500, CodeStorageError},
		{"internal", errors.New("wat"), 500, CodeInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			rec.Header().Set("X-Request-ID", "req-test")
			writeErr(rec, tc.err)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			var env struct {
				Error APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.wantCode || env.Error.RequestID != "req-test" {
				t.Errorf("envelope = %+v, want code %q", env.Error, tc.wantCode)
			}
		})
	}
}

// TestDatasetListPagination walks the dataset list with a small page size
// and asserts the cursor yields each record exactly once, in the
// deterministic (Created desc, ID asc) order.
func TestDatasetListPagination(t *testing.T) {
	_, ts := testServer(t)
	uploaded := make(map[string]bool)
	for i := 0; i < 5; i++ {
		info := upload(t, ts, biasedCSV(10+2*i))
		uploaded[info.ID] = true
	}

	var full DatasetList
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &full); code != http.StatusOK {
		t.Fatalf("full list: status %d", code)
	}
	if len(full.Datasets) != 5 || full.NextPageToken != "" {
		t.Fatalf("full list: %d entries, token %q", len(full.Datasets), full.NextPageToken)
	}
	for i := 1; i < len(full.Datasets); i++ {
		prev, cur := full.Datasets[i-1], full.Datasets[i]
		if cur.Created.After(prev.Created) {
			t.Fatalf("list not Created-descending at %d", i)
		}
	}

	var walked []DatasetInfo
	token := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("pagination did not terminate")
		}
		url := ts.URL + "/v1/datasets?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		var page DatasetList
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
			t.Fatalf("page: status %d", code)
		}
		if len(page.Datasets) > 2 {
			t.Fatalf("page overflow: %d entries", len(page.Datasets))
		}
		walked = append(walked, page.Datasets...)
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(walked) != 5 {
		t.Fatalf("walked %d records, want 5", len(walked))
	}
	for i, info := range walked {
		if !uploaded[info.ID] {
			t.Errorf("walked unknown dataset %s", info.ID)
		}
		if info.ID != full.Datasets[i].ID {
			t.Errorf("walk order diverges from full list at %d: %s vs %s", i, info.ID, full.Datasets[i].ID)
		}
	}
}

// TestAuditListPaginationAndFilter pages the audit list and filters by
// state.
func TestAuditListPaginationAndFilter(t *testing.T) {
	svc, ts := testServer(t)
	info := upload(t, ts, biasedCSV(30))

	var ids []string
	for i := 0; i < 5; i++ {
		var view JobView
		req := AuditRequest{Dataset: info.ID, Ranker: scoreRanker(), Params: rankfair.AuditParams{
			Measure: rankfair.MeasureProp, MinSize: 2, KMin: 2, KMax: 5 + i, Alpha: 0.8,
		}}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/audits", req, &view); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, view.ID)
		awaitJob(t, svc, view.ID)
	}

	var walked []JobView
	token := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("pagination did not terminate")
		}
		url := ts.URL + "/v1/audits?limit=2"
		if token != "" {
			url += "&page_token=" + token
		}
		var page AuditList
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != http.StatusOK {
			t.Fatalf("page: status %d", code)
		}
		if len(page.Audits) > 2 {
			t.Fatalf("page overflow: %d", len(page.Audits))
		}
		walked = append(walked, page.Audits...)
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(walked) != 5 {
		t.Fatalf("walked %d audits, want 5", len(walked))
	}
	for i := 1; i < len(walked); i++ {
		if walked[i-1].ID <= walked[i].ID {
			t.Fatalf("audit walk not ID-descending: %s then %s", walked[i-1].ID, walked[i].ID)
		}
	}

	var done AuditList
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/audits?state=done", nil, &done); code != http.StatusOK {
		t.Fatalf("state filter: status %d", code)
	}
	if len(done.Audits) != len(ids) {
		t.Errorf("state=done returned %d audits, want %d", len(done.Audits), len(ids))
	}
	var queued AuditList
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/audits?state=queued", nil, &queued); code != http.StatusOK {
		t.Fatalf("state filter: status %d", code)
	}
	if len(queued.Audits) != 0 {
		t.Errorf("state=queued returned %d audits, want 0", len(queued.Audits))
	}
}

// TestAppendLocationHeader: a successful append is a 201 whose Location
// names the advanced dataset.
func TestAppendLocationHeader(t *testing.T) {
	_, ts := testServer(t)
	info := upload(t, ts, biasedCSV(20))
	resp, err := http.Post(ts.URL+"/v1/datasets/"+info.ID+"/rows", "text/csv", strings.NewReader("F,N,42\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/datasets/"+info.ID {
		t.Errorf("Location = %q, want /v1/datasets/%s", loc, info.ID)
	}
}
