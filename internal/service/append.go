package service

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"rankfair"
	"rankfair/internal/dataset"
	"rankfair/internal/stream"
)

// AppendResponse is the POST /v1/datasets/{id}/rows response: the advanced
// generation plus what the append actually did.
type AppendResponse struct {
	// Dataset is the new generation's record (bumped Version, chained
	// Hash/Parent, updated row and byte counts).
	Dataset DatasetInfo `json:"dataset"`
	// Appended is the number of rows the batch added.
	Appended int `json:"appended"`
	// Mode reports the applied path: "incremental" (ranking merge-insert +
	// copy-on-write index maintenance) or "rebuild" (full re-decode).
	Mode string `json:"mode"`
	// PromotedAnalysts counts cached analysts warm-promoted to the new
	// generation instead of being invalidated.
	PromotedAnalysts int `json:"promoted_analysts"`
}

// AppendRows applies one row batch to a dataset, advancing it to a new
// content-hash-chained generation. contentType selects the batch decoding
// ("application/json" for JSON rows, anything else for headerless CSV
// rows); data is bounded upstream by MaxUploadBytes.
//
// The append is a transaction against the dataset's current generation:
// concurrent appends to one dataset serialize, while audits keep running
// against whichever generation they were admitted with — the old
// generation's table, analyst and counting index are never mutated
// (copy-on-write snapshot isolation). On success the caches are
// reconciled for the mutated dataset only: cached analysts whose rankers
// support incremental extension are warm-promoted under the new
// generation's keys, everything else under the old generation's key
// prefix is invalidated, and no other dataset's entries are touched.
//
// The new generation's raw form is the old CSV bytes plus the batch's
// canonical CSV rendering, so its content hash — and therefore every
// cache key — is exactly what a fresh upload of the concatenated CSV
// would produce: append-then-audit and fresh-upload-then-audit are
// byte-identical and even share cache entries.
func (s *Service) AppendRows(id, contentType string, data []byte) (*AppendResponse, error) {
	e, st, ok := s.registry.lockAppend(id)
	if !ok {
		// The dataset may be durable but not resident (restart, or paged
		// out by the registry LRU): page it in, then retry the lock once.
		if _, _, loaded := s.getDataset(id); !loaded {
			return nil, &NotFoundError{Resource: "dataset", ID: id}
		}
		if e, st, ok = s.registry.lockAppend(id); !ok {
			return nil, &NotFoundError{Resource: "dataset", ID: id}
		}
	}
	defer e.unlockAppend()

	t0 := time.Now()
	batch, err := parseBatch(contentType, data, st.table, st.opts.Comma)
	s.obs.decode.Observe(time.Since(t0).Seconds())
	if err != nil {
		return nil, &BadRequestError{Err: err}
	}
	if batch.Rows() == 0 {
		return nil, &BadRequestError{Err: fmt.Errorf("service: empty batch")}
	}
	newRaw := stream.Concat(st.raw, batch.Raw)
	if int64(len(newRaw)) > s.cfg.MaxUploadBytes {
		return nil, &BadRequestError{Err: fmt.Errorf("service: appended dataset would be %d bytes, limit is %d", len(newRaw), s.cfg.MaxUploadBytes)}
	}

	// Pick the path: the cost model first, then structural constraints —
	// a batch that changes the decoded schema (new categorical label,
	// non-numeric value in a numeric column) can only be applied by
	// re-decoding the concatenated CSV, which handles the change exactly
	// as a fresh upload would.
	mode := stream.CostModel{RebuildFraction: s.cfg.StreamRebuildFraction}.Decide(st.info.Rows, batch.Rows())
	var newTable *rankfair.Dataset
	if mode == stream.ModeIncremental {
		newTable, err = st.table.AppendRows(batch.Records)
		if err != nil {
			if !errors.Is(err, dataset.ErrSchemaDrift) {
				return nil, &BadRequestError{Err: err}
			}
			mode = stream.ModeRebuild
		}
	}
	if mode == stream.ModeRebuild {
		newTable, err = rankfair.ReadCSV(bytes.NewReader(newRaw), st.opts)
		if err != nil {
			return nil, &BadRequestError{Err: fmt.Errorf("service: decoding appended CSV: %w", err)}
		}
		if err := newTable.Validate(); err != nil {
			return nil, &BadRequestError{Err: fmt.Errorf("service: invalid appended table: %w", err)}
		}
	}

	info := st.info
	info.Parent = info.Hash
	info.Hash = HashCSV(newRaw)
	info.Version++
	info.Rows = newTable.NumRows()
	info.Columns = newTable.NumCols()
	info.Attributes = newTable.CategoricalNames()
	info.Numeric = nil
	for _, c := range newTable.Columns() {
		if c.Kind == dataset.Numeric {
			info.Numeric = append(info.Numeric, c.Name)
		}
	}
	info.Bytes = int64(len(newRaw))

	// Durability before visibility — and before cache reconciliation: the
	// generation is persisted (batch blob + fsync'd manifest record,
	// under the store retry/breaker policy) before anything in memory
	// changes, so a failed persist rolls back to a fully consistent state
	// instead of having already invalidated valid cache entries. An
	// acknowledged append can never be lost to a crash. The store
	// validates the parent against its own head, so a tombstone that
	// raced this transaction loses the generation on disk exactly when
	// commitAppend would discard it in memory.
	if s.store != nil {
		perr := s.storeWrite("append", func() error {
			return s.store.PutAppend(id, info.Hash, st.info.Hash, batch.Raw, encodeMeta(info, st.opts))
		})
		if perr != nil {
			var ue *UnavailableError
			if !errors.As(perr, &ue) {
				if _, chained := s.store.Chain(id); !chained {
					return nil, &NotFoundError{Resource: "dataset", ID: id}
				}
			}
			return nil, storageErr(perr)
		}
	}

	// Reconcile the caches for this dataset only. Promotion happens
	// before invalidation so a promoted analyst's warm state derives from
	// the still-cached parent; in-flight builds are untouched either way
	// (they hold their own table references — snapshot isolation).
	promoted := 0
	if mode == stream.ModeIncremental && s.analysts != nil {
		for _, kv := range s.analysts.EntriesPrefix(analystKeyPrefix(st.info.Hash)) {
			entry, ok := kv.Val.(*analystEntry)
			if !ok {
				continue
			}
			if _, ok := entry.ranker.(rankfair.IncrementalRanker); !ok {
				continue
			}
			na, err := entry.analyst.Append(newTable, entry.ranker)
			if err != nil {
				continue // fall back to invalidation for this entry
			}
			rankerKey := strings.TrimPrefix(kv.Key, analystKeyPrefix(st.info.Hash))
			s.analysts.Put(analystKeyPrefix(info.Hash)+rankerKey, &analystEntry{analyst: na, ranker: entry.ranker})
			promoted++
		}
	}
	if s.analysts != nil {
		s.analysts.RemovePrefix(analystKeyPrefix(st.info.Hash))
	}
	s.cache.RemovePrefix(st.info.Hash + "|")

	if !s.registry.commitAppend(id, e, newTable, newRaw, info) {
		return nil, &NotFoundError{Resource: "dataset", ID: id}
	}

	s.obs.streamAppends.Inc()
	s.obs.streamRows.Add(int64(batch.Rows()))
	if mode == stream.ModeIncremental {
		s.obs.streamIncremental.Inc()
	} else {
		s.obs.streamRebuilds.Inc()
	}
	s.obs.streamPromoted.Add(int64(promoted))

	return &AppendResponse{
		Dataset:          info,
		Appended:         batch.Rows(),
		Mode:             string(mode),
		PromotedAnalysts: promoted,
	}, nil
}

// parseBatch dispatches on the request content type.
func parseBatch(contentType string, data []byte, t *rankfair.Dataset, comma rune) (*stream.Batch, error) {
	mt := contentType
	if i := strings.IndexByte(mt, ';'); i >= 0 {
		mt = mt[:i]
	}
	mt = strings.ToLower(strings.TrimSpace(mt))
	switch mt {
	case "application/json":
		return stream.ParseJSON(data, t, comma)
	case "", "text/csv", "application/csv", "application/octet-stream":
		return stream.ParseCSV(data, t, comma)
	default:
		return nil, fmt.Errorf("service: unsupported batch content type %q (want text/csv or application/json)", contentType)
	}
}
