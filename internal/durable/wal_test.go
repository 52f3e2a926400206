package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/pkg/api"
)

func openSealed(t *testing.T, dir string) (*Store, []JobRecord) {
	t.Helper()
	st, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Re-append everything the previous incarnation had, like the server
	// does, so multi-reopen tests don't lose records to compaction.
	for _, r := range recs {
		st.WAL.Append(SubmitRecord(r.Job, r.Payload))
		if r.Job.State == api.JobRunning {
			st.WAL.Append(Record{Kind: KindStart, ID: r.Job.ID, Time: r.Job.StartedAt})
		}
		if r.Job.State.Terminal() {
			st.WAL.Append(TerminalRecord(r.Job, r.Result))
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return st, recs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, recs := openSealed(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	now := time.Now().Truncate(time.Millisecond)
	steps := []Record{
		{Kind: KindSubmit, ID: "job-1", Type: "subsample", Key: "k1",
			Payload: []byte(`{"type":"subsample"}`), Time: now},
		{Kind: KindStart, ID: "job-1", Time: now.Add(time.Millisecond)},
		{Kind: KindTerminal, ID: "job-1", State: "succeeded",
			Result: []byte(`{"subsample":{"dataset":"GESTS-2048","points":410}}`), Time: now.Add(2 * time.Millisecond)},
		{Kind: KindSubmit, ID: "job-2", Type: "train", Time: now.Add(3 * time.Millisecond)},
		{Kind: KindStart, ID: "job-2", Time: now.Add(4 * time.Millisecond)},
	}
	for _, r := range steps {
		if err := st.WAL.Append(r); err != nil {
			t.Fatalf("Append(%s %s): %v", r.Kind, r.ID, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, recs2 := openSealed(t, dir)
	defer st2.Close()
	if len(recs2) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(recs2))
	}
	j1, j2 := recs2[0], recs2[1]
	if j1.Job.ID != "job-1" || j1.Job.State != api.JobSucceeded || j1.Job.IdempotencyKey != "k1" ||
		string(j1.Payload) != `{"type":"subsample"}` || j1.Job.Type != api.JobSubsample {
		t.Fatalf("job-1 folded wrong: %+v", j1)
	}
	if string(j1.Result) != `{"subsample":{"dataset":"GESTS-2048","points":410}}` {
		t.Fatalf("job-1 result = %s, want the terminal record's bytes", j1.Result)
	}
	if !j1.Job.CreatedAt.Equal(now) {
		t.Fatalf("job-1 created %v, want %v", j1.Job.CreatedAt, now)
	}
	if j2.Job.ID != "job-2" || j2.Job.State != api.JobRunning {
		t.Fatalf("job-2 folded wrong: %+v", j2)
	}
}

func TestWALTerminalError(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "train", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindTerminal, ID: "job-1", State: "failed",
		Error: api.Errorf(api.CodeInvalidArgument, "bad spec"), Time: time.Now()})
	st.Close()

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 || recs[0].Job.State != api.JobFailed {
		t.Fatalf("folded %+v", recs)
	}
	if recs[0].Job.Error == nil || recs[0].Job.Error.Code != api.CodeInvalidArgument {
		t.Fatalf("error not preserved: %+v", recs[0].Job.Error)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.Close()

	// A crash mid-append leaves a torn frame; replay must stop at the
	// last good record instead of erroring.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}) // length says 32, frame truncated
	f.Close()

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 || recs[0].Job.ID != "job-1" {
		t.Fatalf("torn tail: replayed %+v", recs)
	}
}

func TestWALCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-2", Type: "subsample", Time: time.Now()})
	st.Close()

	// Flip one byte in the last frame's payload: its CRC no longer
	// matches, so replay keeps job-1 and drops the corrupt tail.
	path := filepath.Join(dir, walName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 || recs[0].Job.ID != "job-1" {
		t.Fatalf("corrupt frame: replayed %+v", recs)
	}
}

func TestWALBadMagicRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("NOTAWAL_12345678"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a wal.log with foreign magic")
	}
}

func TestWALAppendAfterCloseTypedUnavailable(t *testing.T) {
	st, _ := openSealed(t, t.TempDir())
	st.Close()
	err := st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Time: time.Now()})
	if err == nil {
		t.Fatal("append after close succeeded")
	}
	if api.AsError(err).Code != api.CodeUnavailable {
		t.Fatalf("append after close: code %s, want unavailable", api.AsError(err).Code)
	}
}

func TestWALCrashPointFreezesLog(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(CrashPointEnv, "before:terminal")
	st, _ := openSealed(t, dir)

	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindStart, ID: "job-1", Time: time.Now()})
	// The terminal append hits the crash point: dropped, log frozen.
	if err := st.WAL.Append(Record{Kind: KindTerminal, ID: "job-1", State: "succeeded", Time: time.Now()}); err != nil {
		t.Fatalf("frozen append errored: %v", err)
	}
	if !st.WAL.frozen {
		t.Fatal("crash point did not trip")
	}
	// Everything after the trip is silently lost, like a dead process.
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-2", Type: "subsample", Time: time.Now()})
	st.Close()
	t.Setenv(CrashPointEnv, "")

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d jobs, want 1 (job-2 was post-crash)", len(recs))
	}
	if recs[0].Job.ID != "job-1" || recs[0].Job.State != api.JobRunning {
		t.Fatalf("job-1 should have crashed mid-run: %+v", recs[0])
	}
}

func TestWALCompactionDropsUnreappended(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindTerminal, ID: "job-1", State: "succeeded", Time: time.Now()})
	st.Close()

	// Open and seal WITHOUT re-appending: the expired-job path.
	st2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d, want 1", len(recs))
	}
	if err := st2.Seal(); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	_, recs3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 0 {
		t.Fatalf("compaction kept %d jobs, want 0", len(recs3))
	}
}

// FuzzWALReplay feeds arbitrary bytes to the replay as a wal.log. Replay
// must never panic; it may surface only a prefix of the log's frames, each
// whole and CRC-clean — never a record after a torn, oversized or
// corrupt frame; and whatever it surfaces, written back through the
// package's own log, must replay to the same records.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readWAL(path)
		if err != nil {
			return // a foreign header is refused outright
		}
		rest := data[min(len(data), 8):]
		for i, rec := range recs {
			if len(rest) < 8 {
				t.Fatalf("record %d surfaced past the last frame header", i)
			}
			n := binary.LittleEndian.Uint32(rest[0:4])
			if n == 0 || n > maxFrame || uint64(n) > uint64(len(rest)-8) {
				t.Fatalf("record %d surfaced from a torn or oversized frame", i)
			}
			payload := rest[8 : 8+n]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
				t.Fatalf("record %d surfaced from a frame that fails its CRC", i)
			}
			var want Record
			if err := json.Unmarshal(payload, &want); err != nil || !sameRecords([]Record{want}, []Record{rec}) {
				t.Fatalf("record %d is not its frame's payload %q (%v)", i, payload, err)
			}
			rest = rest[8+n:]
		}

		// Write them back unsealed and replay the compaction file the
		// appends went to: the same frames, without an fsync per input.
		dir := t.TempDir()
		st, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := st.WAL.Append(r); err != nil {
				t.Fatalf("log refused a record its own replay accepted: %v", err)
			}
		}
		st.Freeze()
		st.Close()
		again, err := readWAL(filepath.Join(dir, walCompact))
		if err != nil || !sameRecords(recs, again) {
			t.Fatalf("own log replayed %+v (%v), want %+v", again, err, recs)
		}
	})
}

// sameRecords compares two record lists by their encoding, the form the
// log writes.
func sameRecords(a, b []Record) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
