package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"time"

	"rankfair"
	"rankfair/internal/dataset"
	"rankfair/internal/obs"
	"rankfair/internal/stream"
)

// storedMeta is the owner record each persisted generation carries: the
// generation's full registry record plus (on every generation, so any
// chain prefix is self-describing) the seed upload's decode options.
// It is the schema of store Generation.Meta — change it only additively.
type storedMeta struct {
	Info DatasetInfo      `json:"info"`
	Opts storedCSVOptions `json:"opts"`
}

// storedCSVOptions is the persisted form of rankfair.CSVOptions with
// explicit JSON names, so the on-disk schema does not silently track the
// library struct.
type storedCSVOptions struct {
	Comma              int32    `json:"comma,omitempty"`
	NumericColumns     []string `json:"numeric_columns,omitempty"`
	CategoricalColumns []string `json:"categorical_columns,omitempty"`
	AllCategorical     bool     `json:"all_categorical,omitempty"`
}

func encodeMeta(info DatasetInfo, opts rankfair.CSVOptions) json.RawMessage {
	raw, err := json.Marshal(storedMeta{Info: info, Opts: storedCSVOptions{
		Comma:              opts.Comma,
		NumericColumns:     opts.NumericColumns,
		CategoricalColumns: opts.CategoricalColumns,
		AllCategorical:     opts.AllCategorical,
	}})
	if err != nil { // DatasetInfo is plain data; this cannot fire
		return nil
	}
	return raw
}

func decodeMeta(raw json.RawMessage) (DatasetInfo, rankfair.CSVOptions, error) {
	var m storedMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return DatasetInfo{}, rankfair.CSVOptions{}, err
	}
	return m.Info, rankfair.CSVOptions{
		Comma:              m.Opts.Comma,
		NumericColumns:     m.Opts.NumericColumns,
		CategoricalColumns: m.Opts.CategoricalColumns,
		AllCategorical:     m.Opts.AllCategorical,
	}, nil
}

// loadFlight deduplicates concurrent page-ins of one dataset.
type loadFlight struct {
	done chan struct{}
	ok   bool
}

// getDataset resolves a dataset: from the registry when resident, else by
// paging it in from the durable store (decode the seed blob, replay the
// append chain). Every read path — audits, repairs, explains, GETs,
// appends — goes through here, which is what makes a registry LRU
// eviction of a store-backed dataset a page-out rather than a loss.
func (s *Service) getDataset(id string) (*rankfair.Dataset, DatasetInfo, bool) {
	if t, info, ok := s.registry.Get(id); ok {
		return t, info, true
	}
	if s.store == nil || !s.pageIn(id) {
		return nil, DatasetInfo{}, false
	}
	return s.registry.Get(id)
}

// pageIn materializes one stored dataset into the registry, deduplicating
// concurrent callers onto a single load.
func (s *Service) pageIn(id string) bool {
	s.loadMu.Lock()
	if f, ok := s.loads[id]; ok {
		s.loadMu.Unlock()
		<-f.done
		return f.ok
	}
	f := &loadFlight{done: make(chan struct{})}
	s.loads[id] = f
	s.loadMu.Unlock()

	f.ok = s.loadFromStore(id)

	s.loadMu.Lock()
	delete(s.loads, id)
	s.loadMu.Unlock()
	close(f.done)
	return f.ok
}

// loadFromStore replays one dataset's persisted append chain into the
// registry: the seed blob is decoded once, then every batch blob goes
// through the same incremental ingestion path a live append takes
// (Table.AppendRows — schema-checked column extension, falling back to a
// full re-decode only on schema drift). A blob that fails content
// verification cuts the replay at the consistent prefix and realigns the
// store's catalog to it. The page-in records a span tree in the trace
// ring under "load-<id>", so slow restarts are inspectable like slow
// audits.
func (s *Service) loadFromStore(id string) bool {
	gens, ok := s.store.Chain(id)
	if !ok || len(gens) == 0 {
		return false
	}
	start := time.Now()
	tr := obs.NewTrace("load-"+id, "page-in", start)
	defer func() {
		tr.Root().Finish()
		if s.obs != nil && s.obs.traces != nil {
			s.obs.traces.Put(tr)
		}
	}()

	info, opts, err := decodeMeta(gens[0].Meta)
	if err != nil {
		s.logger.Error("store: undecodable seed metadata", "dataset", id, "err", err)
		return false
	}
	raw, err := s.storeBlob(gens[0].Blob)
	if err != nil {
		s.logger.Error("store: unreadable seed blob", "dataset", id, "err", err)
		return false
	}
	sp := tr.Root().StartChild("seed-decode")
	table, err := rankfair.ReadCSV(bytes.NewReader(raw), opts)
	sp.Finish()
	if err != nil {
		s.logger.Error("store: seed no longer decodes", "dataset", id, "err", err)
		return false
	}

	replayed, rebuilds := 0, 0
	admitted := info
	for _, gen := range gens[1:] {
		genInfo, _, err := decodeMeta(gen.Meta)
		if err != nil {
			break
		}
		batchRaw, err := s.storeBlob(gen.Blob)
		if err != nil {
			// Same-size corruption slips past the boot-time stat checks;
			// the content verification catches it here. Serve the prefix
			// and realign the catalog so later appends chain off it.
			s.logger.Warn("store: replay cut at unreadable batch blob",
				"dataset", id, "generation", genInfo.Version, "err", err)
			s.store.Truncate(id, admitted.Hash)
			break
		}
		sp := tr.Root().StartChild("replay")
		next, incremental, err := s.replayBatch(table, raw, batchRaw, opts)
		sp.Finish()
		if err != nil {
			s.logger.Warn("store: replay cut at undecodable batch",
				"dataset", id, "generation", genInfo.Version, "err", err)
			s.store.Truncate(id, admitted.Hash)
			break
		}
		if incremental {
			replayed++
		} else {
			rebuilds++
		}
		table = next
		raw = stream.Concat(raw, batchRaw)
		admitted = genInfo
	}

	// The chain's construction guarantees the replayed bytes hash to the
	// admitted generation; verifying closes the loop against any logic
	// drift between the live append path and this one.
	if got := HashCSV(raw); got != admitted.Hash {
		s.logger.Error("store: replayed content does not hash to its generation",
			"dataset", id, "got", got[:12], "want", admitted.Hash[:12])
		return false
	}
	s.registry.Restore(admitted, table, raw, opts)
	s.obs.storeLoads.Inc()
	s.obs.storeReplayed.Add(int64(replayed))
	s.obs.storeRebuilds.Add(int64(rebuilds))
	s.logger.Debug("dataset paged in",
		"dataset", id, "version", admitted.Version, "rows", admitted.Rows,
		"replayed", replayed, "rebuilds", rebuilds,
		"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
	return true
}

// replayBatch applies one persisted batch to the materialized table,
// preferring the incremental extension and falling back to a full
// re-decode of the concatenation exactly as the live append path does.
// incremental reports which path ran.
func (s *Service) replayBatch(table *rankfair.Dataset, raw, batchRaw []byte, opts rankfair.CSVOptions) (*rankfair.Dataset, bool, error) {
	batch, err := stream.ParseCSV(batchRaw, table, opts.Comma)
	if err == nil {
		next, err := table.AppendRows(batch.Records)
		if err == nil {
			return next, true, nil
		}
		if !errors.Is(err, dataset.ErrSchemaDrift) {
			return nil, false, err
		}
	}
	next, err := rankfair.ReadCSV(bytes.NewReader(stream.Concat(raw, batchRaw)), opts)
	if err != nil {
		return nil, false, err
	}
	if err := next.Validate(); err != nil {
		return nil, false, err
	}
	return next, false, nil
}

// persistSeed writes a freshly admitted seed generation through to the
// store under the resilience policy (retry, breaker); failure rolls the
// registry entry back and is returned shaped for the HTTP layer, so an
// acknowledged upload is always durable.
func (s *Service) persistSeed(info DatasetInfo, raw []byte, opts rankfair.CSVOptions) error {
	if s.store == nil {
		return nil
	}
	err := s.storeWrite("seed", func() error {
		return s.store.PutSeed(info.ID, info.Hash, raw, encodeMeta(info, opts))
	})
	if err != nil {
		s.registry.Evict(info.ID)
		return storageErr(err)
	}
	return nil
}

// persistResult writes one computed audit result through to the store
// under its cache key, as the summary line followed by the served body.
// Persistence is best-effort by design: the result is already correct and
// cached in memory, so a storage fault degrades restart warmth, not the
// response.
func (s *Service) persistResult(key string, res *AuditResult) {
	if s.store == nil || !s.cfg.PersistCache {
		return
	}
	raw, err := res.blob()
	if err != nil {
		return
	}
	err = s.storeWrite("cache", func() error { return s.store.PutCache(key, raw) })
	if err != nil {
		// A breaker rejection is routine degraded-mode operation; only an
		// actual write failure deserves a warning.
		var ue *UnavailableError
		if errors.As(err, &ue) {
			s.logger.Debug("store: audit result not persisted (degraded mode)", "key", key)
		} else {
			s.logger.Warn("store: persisting audit result", "key", key, "err", err)
		}
		return
	}
	s.obs.storeCachePersisted.Inc()
}

// loadPersistedResults registers every persisted result key in the result
// cache at boot, reading nothing: the first audit that hits an entry reads
// its blob (cachedResult). An entry whose blob then fails verification or
// does not parse leaves the cache and the audit recomputes — the cache is
// an optimization, never a source of truth.
func (s *Service) loadPersistedResults() {
	for _, key := range s.store.CacheKeys() {
		s.cache.Put(key, &persistedResult{key: key})
		s.obs.storeCacheLoaded.Inc()
	}
}

// listDatasets merges the resident registry records with store-backed
// datasets that have not been paged in yet, keeping the registry's
// ordering contract (Created descending, then ID) across both tiers.
func (s *Service) listDatasets() []DatasetInfo {
	infos := s.registry.List()
	if s.store == nil {
		return infos
	}
	resident := make(map[string]bool, len(infos))
	for _, info := range infos {
		resident[info.ID] = true
	}
	for _, id := range s.store.Datasets() {
		if resident[id] {
			continue
		}
		gens, ok := s.store.Chain(id)
		if !ok || len(gens) == 0 {
			continue
		}
		info, _, err := decodeMeta(gens[len(gens)-1].Meta)
		if err != nil {
			continue
		}
		infos = append(infos, info)
	}
	sortDatasetInfos(infos)
	return infos
}
