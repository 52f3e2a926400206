// Package durable persists job state across process crashes. It gives a
// serve replica two on-disk structures under one data directory:
//
//   - a write-ahead job log (wal.log): CRC-framed JSON records, fsync'd
//     per append, replayed on startup so pending/running jobs can be
//     re-enqueued and terminal jobs restored with their results, which
//     ride in the terminal record itself;
//   - a content-addressed cache (cas/): blobs keyed by a SHA-256 over
//     the canonicalized request, memoizing identical subsample jobs
//     into a disk read.
//
// The log is single-writer (the owning JobManager) and append-only
// between compactions. Opening replays the previous log and starts a
// fresh compacted file; Seal atomically renames it over the old log
// once recovery has re-appended the retained records. Append failures
// (including fsync errors) surface as typed api.CodeUnavailable errors
// and latch the log failed — a replica that cannot persist a submission
// must refuse it rather than silently degrade to at-most-once.
// SubmitRecord and TerminalRecord are the one home of the submit and
// terminal record formats, for live jobs and recovery's re-appends alike.
//
// For fault injection, the SICKLE_CRASH_POINT environment variable, read
// when the log opens, names a stage at which the log freezes: that append
// and every later one are dropped, exactly the on-disk state a process
// killed at that instant would leave behind. A serve replica that opens
// its data dir with the variable set logs a warning saying so. The
// process runs on; a test then kills the replica (serve.InProc.Kill), a
// shell drill kill -9s the binary, and either restarts it without the
// variable.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pkg/api"
)

const (
	walMagic   = "SWAL"
	walVersion = 1

	walName    = "wal.log"
	walCompact = "wal.compact"

	// maxFrame bounds a frame's payload; anything larger is treated as
	// tail corruption rather than an allocation request.
	maxFrame = 16 << 20
)

// CrashPointEnv names the environment variable that arms a crash point:
// when the WAL reaches the named stage it freezes (see Freeze). Values
// look like "before:terminal" or "after:submit".
const CrashPointEnv = "SICKLE_CRASH_POINT"

// Kind discriminates WAL record types.
type Kind string

const (
	// KindSubmit records a job's admission: ID, type, idempotency key,
	// and the serialized submission payload recovery rebuilds it from.
	KindSubmit Kind = "submit"
	// KindStart records the pending→running transition.
	KindStart Kind = "start"
	// KindTerminal records the final state: the error of a failed or
	// canceled job, the serialized result of a succeeded one.
	KindTerminal Kind = "terminal"
)

// Record is one WAL entry. Submit carries Type/Key/Payload, terminal
// carries State/Error/Result; Time is the event time
// (created/started/finished).
type Record struct {
	Kind    Kind            `json:"kind"`
	ID      string          `json:"id"`
	Type    string          `json:"type,omitempty"`
	Key     string          `json:"key,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	State   string          `json:"state,omitempty"`
	Error   *api.Error      `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Time    time.Time       `json:"time"`
}

// JobRecord is a job's state folded from its WAL records, in submission
// order. Job.State is api.JobPending if the job never started,
// api.JobRunning if a start record was seen without a terminal one, else
// the terminal state.
type JobRecord struct {
	Job             api.Job
	Payload, Result json.RawMessage
}

// SubmitRecord admits job, with the serialized submission recovery
// rebuilds its runner from.
func SubmitRecord(job api.Job, payload json.RawMessage) Record {
	return Record{Kind: KindSubmit, ID: job.ID, Type: string(job.Type),
		Key: job.IdempotencyKey, Payload: payload, Time: job.CreatedAt}
}

// TerminalRecord ends job, with a succeeded job's serialized result (nil
// when there is none to keep).
func TerminalRecord(job api.Job, result json.RawMessage) Record {
	return Record{Kind: KindTerminal, ID: job.ID, State: string(job.State),
		Error: job.Error, Result: result, Time: job.FinishedAt}
}

// Log is the write-ahead job log. Safe for concurrent use; each append
// is written and fsync'd under one lock so records land in admission
// order.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	dir    string
	sealed bool // post-recovery: appends fsync individually
	frozen bool // crash point reached or Freeze called: appends dropped
	closed bool
	failed error // sticky typed append failure

	crashPoint string // from CrashPointEnv at open; "" disarmed

	appends   *obs.Counter
	appendErr *obs.Counter
	bytes     *obs.Counter
	seconds   *obs.Histogram
	recovered *obs.CounterVec
}

// openLog replays dir/wal.log and starts a fresh compaction file. The
// returned log is unsealed: recovery re-appends retained records without
// per-append fsync, then Seal atomically replaces the old log.
func openLog(dir string) (*Log, []JobRecord, error) {
	recs, err := readWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walCompact), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	hdr := make([]byte, 8)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close() // the header write error dominates
		return nil, nil, err
	}
	return &Log{f: f, dir: dir, crashPoint: os.Getenv(CrashPointEnv)}, reduce(recs), nil
}

// Freeze drops all future appends, simulating process death for abrupt
// InProc.Kill teardown: runner goroutines the harness still reaps write
// nothing more to disk, as if the process had stopped with them.
func (l *Log) Freeze() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frozen = true
}

// Seal fsyncs the compaction file and atomically renames it over
// wal.log. After Seal every append is individually fsync'd before it is
// acknowledged.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed || l.frozen {
		l.sealed = true
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		return l.fail("seal fsync", err)
	}
	if err := os.Rename(filepath.Join(l.dir, walCompact), filepath.Join(l.dir, walName)); err != nil {
		return l.fail("seal rename", err)
	}
	syncDir(l.dir)
	l.sealed = true
	return nil
}

// Append durably records rec. An error is always typed
// api.CodeUnavailable (fsync failures included) and latches: once an
// append fails the log accepts nothing more, so a caller can trust that
// a nil error means the record is on disk (crash-point freezes excepted,
// which exist precisely to simulate the machine lying about that).
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return api.Errorf(api.CodeUnavailable, "wal: closed")
	}
	if l.failed != nil {
		return l.failed
	}
	st := string(rec.Kind) // a kind is its crash-point stage name
	l.hit("before:" + st)
	if l.frozen {
		return nil
	}
	start := time.Now()
	payload, err := json.Marshal(rec)
	if err != nil {
		return l.fail("encode", err)
	}
	if len(payload) > maxFrame {
		return l.fail("encode", fmt.Errorf("record exceeds %d bytes", maxFrame))
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return l.fail("append", err)
	}
	if l.sealed {
		if err := l.f.Sync(); err != nil {
			return l.fail("fsync", err)
		}
	}
	l.appends.Inc()
	l.bytes.Add(float64(len(frame)))
	l.seconds.Observe(time.Since(start).Seconds())
	l.hit("after:" + st)
	return nil
}

// hit freezes the log at its crash point; called with mu held.
func (l *Log) hit(point string) {
	if l.crashPoint == point {
		l.frozen = true
	}
}

// fail latches the log failed with a typed unavailable error; mu held.
func (l *Log) fail(op string, err error) error {
	l.appendErr.Inc()
	l.failed = api.Errorf(api.CodeUnavailable, "wal %s: %v", op, err)
	return l.failed
}

// Close flushes and closes the log file. A frozen log skips the flush —
// it is pretending to be dead — but still releases the descriptor.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.frozen || l.failed != nil {
		_ = l.f.Close() // already failed or sealed; nothing left to lose
		return nil
	}
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close() // the sync error dominates
		return err
	}
	return l.f.Close()
}

// register mounts the WAL metrics on reg.
func (l *Log) register(reg *obs.Registry) {
	l.appends = reg.Counter("sickle_wal_appends_total",
		"WAL records durably appended.").With()
	l.appendErr = reg.Counter("sickle_wal_append_errors_total",
		"WAL appends that failed (write or fsync); each also fails the submission.").With()
	l.bytes = reg.Counter("sickle_wal_appended_bytes_total",
		"Bytes appended to the WAL, framing included.").With()
	l.seconds = reg.Histogram("sickle_wal_append_seconds",
		"Latency of one durable WAL append (encode + write + fsync).",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}).With()
	l.recovered = reg.Counter("sickle_wal_recovered_jobs_total",
		"Jobs recovered from the WAL at startup, by action taken.", "action")
}

// CountRecovered records one recovered job by action ("reenqueued",
// "restored", "dropped"). Nil-safe before register.
func (l *Log) CountRecovered(action string) { l.recovered.With(action).Inc() }

// readWAL replays one log file. A missing file is an empty log. The
// tail is forgiving — a torn frame, bad CRC, or undecodable record ends
// the replay at the last good record, the contract fsync-per-append
// makes safe — but a bad header is a hard error: that file is not ours
// to compact away.
func readWAL(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, nil // torn header: crashed before the first record
	}
	if string(hdr[:4]) != walMagic {
		return nil, errors.New("durable: wal.log has unknown magic; refusing to compact it away")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != walVersion {
		return nil, fmt.Errorf("durable: wal.log version %d, want %d", v, walVersion)
	}
	var recs []Record
	fh := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, fh); err != nil {
			return recs, nil
		}
		n := binary.LittleEndian.Uint32(fh[0:4])
		sum := binary.LittleEndian.Uint32(fh[4:8])
		if n == 0 || n > maxFrame {
			return recs, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, nil
		}
		recs = append(recs, rec)
	}
}

// reduce folds raw records into per-job state, in first-submit order.
func reduce(recs []Record) []JobRecord {
	var out []JobRecord
	at := make(map[string]int) // job ID -> its index in out
	for _, r := range recs {
		i, seen := at[r.ID]
		switch {
		case !seen && r.Kind == KindSubmit:
			at[r.ID] = len(out)
			out = append(out, JobRecord{Job: api.Job{
				ID: r.ID, Type: api.JobType(r.Type), State: api.JobPending,
				CreatedAt: r.Time, IdempotencyKey: r.Key,
			}, Payload: r.Payload})
		case !seen:
			// a start or terminal record whose submit the log does not hold
		case r.Kind == KindStart && !out[i].Job.State.Terminal():
			out[i].Job.State = api.JobRunning
			out[i].Job.StartedAt = r.Time
		case r.Kind == KindTerminal:
			out[i].Job.State = api.JobState(r.State)
			out[i].Job.Error = r.Error
			out[i].Job.FinishedAt = r.Time
			out[i].Result = r.Result
		}
	}
	return out
}

// syncDir best-effort fsyncs a directory so a rename within it is
// durable; some filesystems reject directory fsync, hence no error.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
