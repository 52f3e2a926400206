package durable

import (
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// Store bundles a replica's durability state under one data directory:
//
//	<dir>/wal.log   write-ahead job log (wal.compact during recovery); a
//	                succeeded job's result rides in its terminal record
//	<dir>/cas/      content-addressed subsample cache, keyed by ContentKey
type Store struct {
	WAL   *Log
	Cache *BlobStore
}

// Open creates dir if needed, replays the previous WAL, and returns the
// store plus the folded per-job records in submission order. The WAL is
// unsealed: the caller re-appends the records it retains (restored
// terminal jobs, re-enqueued interrupted ones) and then calls Seal,
// which atomically compacts the log. Dropped jobs simply aren't
// re-appended — that is the whole compaction scheme.
func Open(dir string) (*Store, []JobRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	wal, recs, err := openLog(dir)
	if err != nil {
		return nil, nil, err
	}
	cache, err := newBlobStore(filepath.Join(dir, "cas"))
	if err != nil {
		_ = wal.Close() // the store-open error dominates
		return nil, nil, err
	}
	return &Store{WAL: wal, Cache: cache}, recs, nil
}

// Seal finishes recovery: see Log.Seal.
func (s *Store) Seal() error { return s.WAL.Seal() }

// Freeze drops all future WAL appends (crash simulation); see Log.Freeze.
func (s *Store) Freeze() {
	if s == nil {
		return
	}
	s.WAL.Freeze()
}

// Close releases the WAL file handle.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.WAL.Close()
}

// Register mounts sickle_wal_* and sickle_dedup_* metrics.
func (s *Store) Register(reg *obs.Registry) {
	s.WAL.register(reg)
	s.Cache.register(reg)
}
