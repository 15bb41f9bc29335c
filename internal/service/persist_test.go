package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rankfair"
	"rankfair/internal/store"
	"rankfair/internal/stream"
)

// persistServer builds a store-backed service over dir plus an httptest
// server. The returned stop function shuts both down; it is safe to call
// early (to simulate a restart) and is also registered as cleanup.
func persistServer(t testing.TB, dir string, persistCache bool) (*Service, *httptest.Server, func()) {
	t.Helper()
	svc := mustNew(t, Config{
		Workers: 2, QueueDepth: 32, CacheEntries: 32, MaxDatasets: 8,
		DataDir: dir, PersistCache: persistCache,
	})
	ts := httptest.NewServer(svc.Handler())
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		})
	}
	t.Cleanup(stop)
	return svc, ts, stop
}

// getDatasetInfo fetches one dataset record over the API.
func getDatasetInfo(t *testing.T, ts *httptest.Server, id string) (DatasetInfo, int) {
	t.Helper()
	var info DatasetInfo
	code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+id, nil, &info)
	return info, code
}

// TestPersistRestartWarm is the restart-warm proof: a dataset built by a
// seed upload plus appends survives an abrupt shutdown, the restarted
// service replays the chain through the incremental path (replays > 0,
// rebuilds == 0), and the post-restart audit is byte-identical to the
// pre-restart one.
func TestPersistRestartWarm(t *testing.T) {
	dir := t.TempDir()
	seed := biasedCSV(60)

	_, ts1, stop1 := persistServer(t, dir, false)
	info := upload(t, ts1, seed)
	for i := 0; i < 2; i++ {
		if resp, code := postAppend(t, ts1, info.ID, "text/csv", appendBatchCSV(4+i)); code != http.StatusCreated {
			t.Fatalf("append %d: status %d: %+v", i, code, resp)
		}
	}
	head, code := getDatasetInfo(t, ts1, info.ID)
	if code != http.StatusOK || head.Version != 3 {
		t.Fatalf("pre-restart head: status %d, %+v", code, head)
	}
	report1 := runAuditReport(t, ts1, info.ID)
	stop1() // fsync-at-write durability: no flush path exists to miss

	svc2, ts2, _ := persistServer(t, dir, false)
	got, code := getDatasetInfo(t, ts2, info.ID)
	if code != http.StatusOK {
		t.Fatalf("post-restart GET: status %d", code)
	}
	if got.Version != head.Version || got.Hash != head.Hash || got.Rows != head.Rows {
		t.Fatalf("post-restart head = %+v, want %+v", got, head)
	}
	report2 := runAuditReport(t, ts2, info.ID)
	if !bytes.Equal(report1, report2) {
		t.Fatalf("post-restart report differs:\n%s\nvs\n%s", report1, report2)
	}
	if loads := svc2.obs.storeLoads.Value(); loads < 1 {
		t.Errorf("storeLoads = %d, want >= 1", loads)
	}
	if replayed := svc2.obs.storeReplayed.Value(); replayed != 2 {
		t.Errorf("storeReplayed = %d, want 2", replayed)
	}
	if rebuilds := svc2.obs.storeRebuilds.Value(); rebuilds != 0 {
		t.Errorf("storeRebuilds = %d, want 0", rebuilds)
	}

	// The warm-restart series is scrapeable, not just internal state.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"rankfaird_store_replayed_generations_total 2",
		"rankfaird_store_replay_rebuilds_total 0",
		"rankfaird_store_dataset_loads_total 1",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The chain keeps growing after restart: the next append builds on the
	// replayed head, not on a fresh fork.
	resp2, code := postAppend(t, ts2, info.ID, "text/csv", appendBatchCSV(3))
	if code != http.StatusCreated {
		t.Fatalf("post-restart append: status %d", code)
	}
	if resp2.Dataset.Version != 4 || resp2.Dataset.Parent != head.Hash {
		t.Fatalf("post-restart append landed on %+v, want version 4 chained to %s", resp2.Dataset, head.Hash[:12])
	}
}

// TestPersistUploadResolvesDiskChain re-uploads a seed whose on-disk chain
// has advanced past the seed: the response must carry the chain's real
// head, not fork a fresh v1 in memory that disagrees with disk.
func TestPersistUploadResolvesDiskChain(t *testing.T) {
	dir := t.TempDir()
	seed := biasedCSV(40)

	_, ts1, stop1 := persistServer(t, dir, false)
	info := upload(t, ts1, seed)
	if resp, code := postAppend(t, ts1, info.ID, "text/csv", appendBatchCSV(4)); code != http.StatusCreated {
		t.Fatalf("append: status %d: %+v", code, resp)
	}
	stop1()

	_, ts2, _ := persistServer(t, dir, false)
	again := upload(t, ts2, seed)
	if again.ID != info.ID || again.Version != 2 {
		t.Fatalf("re-upload returned %+v, want version 2 of %s", again, info.ID)
	}
}

// TestPersistPageInAfterLRUEviction: with a durable store, a registry
// capacity eviction is a page-out, not a loss — the dataset reloads on
// next touch.
func TestPersistPageInAfterLRUEviction(t *testing.T) {
	dir := t.TempDir()
	svc := mustNew(t, Config{Workers: 1, MaxDatasets: 1, DataDir: dir})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	a := upload(t, ts, biasedCSV(20))
	b := upload(t, ts, biasedCSV(30)) // evicts a from the registry
	if svc.Registry().Len() != 1 {
		t.Fatalf("registry holds %d datasets, want 1", svc.Registry().Len())
	}
	got, code := getDatasetInfo(t, ts, a.ID)
	if code != http.StatusOK || got.Hash != a.Hash {
		t.Fatalf("paged-in GET: status %d, %+v", code, got)
	}
	if loads := svc.obs.storeLoads.Value(); loads < 1 {
		t.Errorf("storeLoads = %d, want >= 1", loads)
	}
	// Both datasets remain listable regardless of which is resident.
	var list DatasetList
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	ids := map[string]bool{}
	for _, d := range list.Datasets {
		ids[d.ID] = true
	}
	if !ids[a.ID] || !ids[b.ID] {
		t.Errorf("list = %v, want both %s and %s", ids, a.ID, b.ID)
	}
}

// TestPersistTombstoneSurvivesRestart: DELETE is durable — the dataset
// stays gone after a restart instead of resurrecting from its chain.
func TestPersistTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	_, ts1, stop1 := persistServer(t, dir, false)
	info := upload(t, ts1, biasedCSV(20))
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/datasets/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	stop1()

	_, ts2, _ := persistServer(t, dir, false)
	if _, code := getDatasetInfo(t, ts2, info.ID); code != http.StatusNotFound {
		t.Fatalf("tombstoned dataset GET after restart: status %d, want 404", code)
	}
	var list DatasetList
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Datasets) != 0 {
		t.Fatalf("list after tombstone = %+v, want empty", list.Datasets)
	}
}

// TestPersistResultCacheReload: with -persist-cache, a computed audit
// survives restart and the re-submitted audit is a cache hit.
func TestPersistResultCacheReload(t *testing.T) {
	dir := t.TempDir()

	_, ts1, stop1 := persistServer(t, dir, true)
	info := upload(t, ts1, biasedCSV(40))
	report1 := runAuditReport(t, ts1, info.ID)
	stop1()

	svc2, ts2, _ := persistServer(t, dir, true)
	if loaded := svc2.obs.storeCacheLoaded.Value(); loaded < 1 {
		t.Fatalf("storeCacheLoaded = %d, want >= 1", loaded)
	}
	var view JobView
	req := AuditRequest{Dataset: info.ID, Ranker: scoreRanker(), Params: streamAuditParams()}
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/audits", req, &view); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	report2 := awaitReport(t, ts2, view.ID)
	final, _ := svc2.Jobs().Get(view.ID)
	if !final.CacheHit {
		t.Error("post-restart audit should be served from the persisted result cache")
	}
	raw1, raw2 := mustMarshalReport(t, report1), mustMarshalReport(t, report2)
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cached report differs after restart:\n%s\nvs\n%s", raw1, raw2)
	}
	if svc2.obs.storeRebuilds.Value() != 0 {
		t.Errorf("storeRebuilds = %d, want 0", svc2.obs.storeRebuilds.Value())
	}
}

// mustMarshalReport renders a report exactly as the HTTP layer would.
func mustMarshalReport(t *testing.T, v any) []byte {
	t.Helper()
	switch r := v.(type) {
	case []byte:
		return r
	case *rankfair.ReportJSON:
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, r)
		return rec.Body.Bytes()
	default:
		t.Fatalf("unexpected report type %T", v)
		return nil
	}
}

// chainGenerations reads one dataset's persisted chain straight from the
// data dir, for tests that need a generation's blob name to damage it.
func chainGenerations(t *testing.T, dir, id string) []store.Generation {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gens, ok := st.Chain(id)
	if !ok {
		t.Fatalf("no chain for %s", id)
	}
	return gens
}

// TestPersistCrashConsistentPrefix damages a populated data dir at each
// WAL/blob write boundary and asserts the restarted service recovers to
// the longest consistent chain prefix — and that an audit over the
// recovered prefix is byte-identical to a fresh upload of the prefix
// bytes, so recovery lands on a real generation, not an approximation.
func TestPersistCrashConsistentPrefix(t *testing.T) {
	seed := biasedCSV(50)
	batch1, batch2 := appendBatchCSV(4), appendBatchCSV(9)

	populate := func(t *testing.T) (string, DatasetInfo) {
		dir := t.TempDir()
		_, ts, stop := persistServer(t, dir, false)
		info := upload(t, ts, seed)
		for _, b := range [][]byte{batch1, batch2} {
			if resp, code := postAppend(t, ts, info.ID, "text/csv", b); code != http.StatusCreated {
				t.Fatalf("append: status %d: %+v", code, resp)
			}
		}
		stop()
		return dir, info
	}

	for _, tc := range []struct {
		name string
		// damage corrupts the data dir; wantVersion is the head version
		// the recovered chain must land on; wantRaw is that generation's
		// full CSV content.
		damage      func(t *testing.T, dir, id string)
		wantVersion int
		wantRaw     []byte
	}{
		{
			// The WAL record for generation 3 is durable but its batch blob
			// is not (crash between blob write and... the inverse ordering —
			// which the store's blob-first discipline makes impossible to
			// create in normal operation, but disk loss can).
			name: "manifest-ahead-of-blob",
			damage: func(t *testing.T, dir, id string) {
				gens := chainGenerations(t, dir, id)
				blob := gens[2].Blob
				if err := os.Remove(filepath.Join(dir, "blobs", blob[:2], blob)); err != nil {
					t.Fatal(err)
				}
			},
			wantVersion: 2,
			wantRaw:     stream.Concat(seed, batch1),
		},
		{
			// Torn batch blob: the file exists but lost its tail.
			name: "torn-batch-blob",
			damage: func(t *testing.T, dir, id string) {
				gens := chainGenerations(t, dir, id)
				blob := gens[2].Blob
				if err := os.Truncate(filepath.Join(dir, "blobs", blob[:2], blob), int64(len(batch2)/2)); err != nil {
					t.Fatal(err)
				}
			},
			wantVersion: 2,
			wantRaw:     stream.Concat(seed, batch1),
		},
		{
			// Torn manifest tail: the crash cut the WAL mid-record. The
			// orphaned batch blob for the lost record is harmless.
			name: "torn-manifest-tail",
			damage: func(t *testing.T, dir, _ string) {
				f, err := os.OpenFile(filepath.Join(dir, "MANIFEST"), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteString(`{"op":"append","dataset":"ds-tru`); err != nil {
					t.Fatal(err)
				}
			},
			wantVersion: 3,
			wantRaw:     stream.Concat(stream.Concat(seed, batch1), batch2),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, info := populate(t)
			tc.damage(t, dir, info.ID)

			svc, ts, _ := persistServer(t, dir, false)
			got, code := getDatasetInfo(t, ts, info.ID)
			if code != http.StatusOK {
				t.Fatalf("recovered GET: status %d", code)
			}
			if got.Version != tc.wantVersion || got.Hash != HashCSV(tc.wantRaw) {
				t.Fatalf("recovered head = v%d %s, want v%d %s",
					got.Version, got.Hash[:12], tc.wantVersion, HashCSV(tc.wantRaw)[:12])
			}
			recovered := runAuditReport(t, ts, info.ID)
			if svc.obs.storeRebuilds.Value() != 0 {
				t.Errorf("recovery used %d rebuilds, want pure replay", svc.obs.storeRebuilds.Value())
			}

			// Byte-identity against a fresh upload of the recovered prefix.
			_, fresh := testServer(t)
			freshInfo := upload(t, fresh, tc.wantRaw)
			if freshInfo.Hash != got.Hash {
				t.Fatalf("fresh upload hash %s != recovered %s", freshInfo.Hash[:12], got.Hash[:12])
			}
			freshReport := runAuditReport(t, fresh, freshInfo.ID)
			if !bytes.Equal(recovered, freshReport) {
				t.Fatalf("recovered-prefix audit differs from fresh upload:\n%s\nvs\n%s", recovered, freshReport)
			}

			// Appends chain cleanly off the recovered head.
			resp, code := postAppend(t, ts, info.ID, "text/csv", appendBatchCSV(2))
			if code != http.StatusCreated {
				t.Fatalf("append after recovery: status %d", code)
			}
			if resp.Dataset.Version != tc.wantVersion+1 || resp.Dataset.Parent != got.Hash {
				t.Fatalf("append after recovery landed on %+v", resp.Dataset)
			}
		})
	}
}

// awaitJob blocks until one submitted job finishes successfully.
func awaitJob(tb testing.TB, svc *Service, id string) JobView {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.Jobs().Wait(ctx, id)
	if err != nil {
		tb.Fatal(err)
	}
	if final.Status != JobDone {
		tb.Fatalf("job %s ended %s: %s", id, final.Status, final.Error)
	}
	return final
}

// benchWorstAttrs sizes the Theorem 3.3 worst-case head of the benchmark
// dataset; the serial lattice search is exponential in it.
const benchWorstAttrs = 16

// benchSeedCSV builds the benchmark corpus: the first benchWorstAttrs+1
// ranks reproduce the Theorem 3.3 worst-case construction (row i sets
// attribute A_{i+1}, the last row none), so the audit search over the top
// ranks is exponential in benchWorstAttrs, while `filler` trailing
// baseline rows below the audited window give chain replay real decode
// work. Scores strictly descend, making the ranking deterministic.
func benchSeedCSV(filler int) []byte {
	var b bytes.Buffer
	for a := 0; a < benchWorstAttrs; a++ {
		fmt.Fprintf(&b, "A%d,", a+1)
	}
	b.WriteString("score\n")
	for i := 0; i <= benchWorstAttrs; i++ {
		for a := 0; a < benchWorstAttrs; a++ {
			if a == i {
				b.WriteString("y,")
			} else {
				b.WriteString("n,")
			}
		}
		fmt.Fprintf(&b, "%d\n", 1_000_000-i)
	}
	b.Write(benchFillerRows(filler, 0))
	return b.Bytes()
}

// benchFillerRows emits headerless all-baseline rows ranked below the
// worst-case head; offset keeps scores unique across batches.
func benchFillerRows(rows, offset int) []byte {
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		b.WriteString(strings.Repeat("n,", benchWorstAttrs))
		fmt.Fprintf(&b, "%d\n", 500_000-offset-i)
	}
	return b.Bytes()
}

// BenchmarkRestartWarm measures what the durable store buys on restart:
//
//   - cold-upload: no store — every "restart" re-uploads the full CSV and
//     recomputes the audit from scratch (the only option before PR 7).
//   - warm-replay: a store-backed restart pages the dataset in by chain
//     replay, then recomputes the audit (result cache not persisted).
//   - warm-replay-cached: -persist-cache restart — chain replay plus the
//     audit served from the reloaded result cache.
func BenchmarkRestartWarm(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	seed := benchSeedCSV(2000)
	batches := [][]byte{benchFillerRows(100, 2000), benchFillerRows(150, 2100), benchFillerRows(200, 2250)}
	req := func(id string) AuditRequest {
		return AuditRequest{Dataset: id, Ranker: scoreRanker(), Params: rankfair.AuditParams{
			Measure: rankfair.MeasureGlobal, MinSize: 2,
			KMin: benchWorstAttrs, KMax: benchWorstAttrs,
			Lower: []int{benchWorstAttrs/2 + 1},
		}}
	}

	// One audited, store-backed corpus shared by both warm arms.
	populate := func(b *testing.B, persistCache bool) (string, string) {
		b.Helper()
		dir := b.TempDir()
		svc := mustNew(b, Config{Workers: 1, DataDir: dir, PersistCache: persistCache, Logger: quiet})
		defer svc.Shutdown(context.Background())
		info, _, err := svc.Registry().Add("bench", seed, rankfair.CSVOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.persistSeed(info, seed, rankfair.CSVOptions{}); err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if _, err := svc.AppendRows(info.ID, "text/csv", batch); err != nil {
				b.Fatal(err)
			}
		}
		view, err := svc.SubmitAudit(req(info.ID))
		if err != nil {
			b.Fatal(err)
		}
		awaitJob(b, svc, view.ID)
		return dir, info.ID
	}

	fullRaw := seed
	for _, batch := range batches {
		fullRaw = stream.Concat(fullRaw, batch)
	}

	b.Run("cold-upload", func(b *testing.B) {
		b.SetBytes(int64(len(fullRaw)))
		for i := 0; i < b.N; i++ {
			svc := mustNew(b, Config{Workers: 1, Logger: quiet})
			info, _, err := svc.Registry().Add(fmt.Sprintf("cold-%d", i), fullRaw, rankfair.CSVOptions{})
			if err != nil {
				b.Fatal(err)
			}
			view, err := svc.SubmitAudit(req(info.ID))
			if err != nil {
				b.Fatal(err)
			}
			awaitJob(b, svc, view.ID)
			svc.Shutdown(context.Background())
		}
	})
	b.Run("warm-replay", func(b *testing.B) {
		dir, id := populate(b, false)
		b.SetBytes(int64(len(fullRaw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc := mustNew(b, Config{Workers: 1, DataDir: dir, Logger: quiet})
			view, err := svc.SubmitAudit(req(id))
			if err != nil {
				b.Fatal(err)
			}
			awaitJob(b, svc, view.ID)
			b.StopTimer()
			svc.Shutdown(context.Background())
			b.StartTimer()
		}
	})
	b.Run("warm-replay-cached", func(b *testing.B) {
		dir, id := populate(b, true)
		b.SetBytes(int64(len(fullRaw)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc := mustNew(b, Config{Workers: 1, DataDir: dir, PersistCache: true, Logger: quiet})
			view, err := svc.SubmitAudit(req(id))
			if err != nil {
				b.Fatal(err)
			}
			done := awaitJob(b, svc, view.ID)
			if !done.CacheHit {
				b.Fatal("cached arm missed the persisted result cache")
			}
			b.StopTimer()
			svc.Shutdown(context.Background())
			b.StartTimer()
		}
	})
}
