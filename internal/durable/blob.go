package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/pkg/api"
)

// Blob framing: magic | u32 length | u32 crc32(payload) | payload.
const blobMagic = "SRES"

// ErrNotFound reports a key with no blob.
var ErrNotFound = errors.New("durable: blob not found")

// ErrCorrupt reports a blob whose frame or CRC check failed; callers
// fall back to recomputing (and should Delete the carcass).
var ErrCorrupt = errors.New("durable: blob corrupt")

// BlobStore is a flat directory of CRC-framed blobs written atomically
// (temp file + fsync + rename). It backs the content-addressed subsample
// cache. Handles are nil-safe on the metrics side: an unregistered store
// simply counts nothing.
type BlobStore struct {
	dir string

	hits    *obs.Counter
	misses  *obs.Counter
	corrupt *obs.Counter
	puts    *obs.Counter
}

// newBlobStore creates dir if needed and returns a store over it.
func newBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &BlobStore{dir: dir}, nil
}

// path maps a key to its file, defensively replacing anything that is
// not path-safe (keys here are SHA-256 hex, which is).
func (s *BlobStore) path(key string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, key)
	return filepath.Join(s.dir, safe+".blob")
}

// Put atomically writes data under key. Errors are typed
// api.CodeUnavailable: a store that cannot persist is the same fault as
// a WAL that cannot append.
func (s *BlobStore) Put(key string, data []byte) error {
	final := s.path(key)
	tmp := final + ".tmp"
	frame := make([]byte, 12+len(data))
	copy(frame, blobMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(data)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(data))
	copy(frame[12:], data)
	err := func() error {
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(frame); err != nil {
			_ = f.Close() // the write error dominates
			return err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // the sync error dominates
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, final)
	}()
	if err != nil {
		os.Remove(tmp)
		return api.Errorf(api.CodeUnavailable, "blob put %s: %v", key, err)
	}
	syncDir(s.dir)
	s.puts.Inc()
	return nil
}

// Get returns the payload stored under key. ErrNotFound means no blob;
// ErrCorrupt means the frame failed its checks (torn write, bit rot).
func (s *BlobStore) Get(key string) ([]byte, error) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Inc()
			return nil, ErrNotFound
		}
		s.misses.Inc()
		return nil, err
	}
	if len(raw) < 12 || string(raw[:4]) != blobMagic {
		s.corrupt.Inc()
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(raw[4:8])
	sum := binary.LittleEndian.Uint32(raw[8:12])
	payload := raw[12:]
	if uint32(len(payload)) != n || crc32.ChecksumIEEE(payload) != sum {
		s.corrupt.Inc()
		return nil, ErrCorrupt
	}
	s.hits.Inc()
	return payload, nil
}

// Delete removes key's blob, if any; best-effort.
func (s *BlobStore) Delete(key string) { os.Remove(s.path(key)) }

// register mounts the dedup cache's counters. The names are spelled out
// as constants (not built from a prefix) so sicklevet and grep can see
// every registered series.
func (s *BlobStore) register(reg *obs.Registry) {
	s.hits = reg.Counter("sickle_dedup_hits_total",
		"Reads of the content-addressed result cache served from disk.").With()
	s.misses = reg.Counter("sickle_dedup_misses_total",
		"Reads of the content-addressed result cache that found no blob.").With()
	s.corrupt = reg.Counter("sickle_dedup_corrupt_total",
		"Reads of the content-addressed result cache rejected by the CRC frame check.").With()
	s.puts = reg.Counter("sickle_dedup_puts_total",
		"Blobs written to the content-addressed result cache.").With()
}

// contentKeySchema versions the canonical form below; bump it whenever
// the subsample pipeline's meaning changes so stale cache entries miss.
const contentKeySchema = 1

// ContentKey derives the content address of a subsample request: a
// SHA-256 over a canonicalized (schema-versioned, scale-normalized)
// projection of every parameter that influences the result bytes.
// Dataset identity + snapshot + shard path stand in for the dataset
// version; two requests differing only in trace identity or transport
// framing collide here on purpose — that collision is the dedup hit.
func ContentKey(req api.SubsampleRequest) string {
	canon := struct {
		Schema     int    `json:"v"`
		Dataset    string `json:"dataset"`
		Scale      string `json:"scale"`
		Shard      string `json:"shard"`
		Snapshot   int    `json:"snapshot"`
		Hypercubes string `json:"hypercubes"`
		Method     string `json:"method"`
		NumCubes   int    `json:"numHypercubes"`
		NumSamples int    `json:"numSamples"`
		Cube       int    `json:"cube"`
		Clusters   int    `json:"numClusters"`
		Seed       int64  `json:"seed"`
	}{
		Schema:     contentKeySchema,
		Dataset:    req.Dataset,
		Scale:      strings.ToLower(strings.TrimSpace(req.Scale)),
		Shard:      req.Shard,
		Snapshot:   req.Snapshot,
		Hypercubes: req.Hypercubes,
		Method:     strings.ToLower(strings.TrimSpace(req.Method)),
		NumCubes:   req.NumHypercubes,
		NumSamples: req.NumSamples,
		Cube:       req.Cube,
		Clusters:   req.NumClusters,
		Seed:       req.Seed,
	}
	b, _ := json.Marshal(canon)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
