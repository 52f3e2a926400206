package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/pkg/api"
	"repro/pkg/client"
)

// startDurable boots an in-process replica persisting job state to dir.
func startDurable(t *testing.T, dir string) *InProc {
	t.Helper()
	p, err := StartInProc(Config{DataDir: dir, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// httpGet fetches a raw body (journal, metrics, result bytes).
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

var testSub = api.SubsampleRequest{
	Dataset: "GESTS-2048", Cube: 8, NumHypercubes: 2, NumSamples: 16, Seed: 1}

// TestCrashRecoveryMidJob is the tentpole acceptance test: a replica dies
// mid-subsample (WAL frozen at the crash instant, then InProc.Kill), a
// fresh process on the same data dir re-enqueues the interrupted job
// under its original ID and key, runs it to completion, and a keyed
// retry of the submission observes exactly that one job.
func TestCrashRecoveryMidJob(t *testing.T) {
	dir := t.TempDir()
	p := startDurable(t, dir)
	ctx := context.Background()
	c := client.New(p.URL)

	// Park the sampler after its first cube so the kill lands mid-job.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p.Server.testProgressHook = func(done, total int) {
		if done == 1 {
			once.Do(func() { close(started) })
			<-release
		}
	}
	key := api.NewIdempotencyKey()
	req := api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &testSub, IdempotencyKey: key}
	job, err := c.SubmitJob(ctx, &req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	// Crash instant: nothing past this point reaches disk. The release
	// only lets the runner goroutine unwind so Kill can reap it.
	p.Server.durable.Freeze()
	close(release)
	p.Kill()

	p2 := startDurable(t, dir)
	defer p2.Close(ctx)
	c2 := client.New(p2.URL)

	// The interrupted job came back under its original identity...
	done, err := c2.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob after restart: %v", err)
	}
	if done.State != api.JobSucceeded {
		t.Fatalf("recovered job finished %s (%v)", done.State, done.Error)
	}
	if done.IdempotencyKey != key {
		t.Fatalf("recovered job lost its key: %+v", done)
	}
	res, err := c2.JobResult(ctx, job.ID)
	if err != nil || res.Subsample == nil || res.Subsample.Cubes != testSub.NumHypercubes {
		t.Fatalf("recovered job result = %+v, %v", res, err)
	}

	// ...a keyed retry of the same submission lands on it (200, not a
	// second job)...
	again, err := c2.SubmitJob(ctx, &req)
	if err != nil {
		t.Fatalf("keyed resubmit after restart: %v", err)
	}
	if again.ID != job.ID {
		t.Fatalf("resubmit created job %s, want original %s", again.ID, job.ID)
	}
	jobs, err := c2.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs after recovery + retry = %+v, %v; want exactly one", jobs, err)
	}

	// ...and the recovery is observable: journal event + counter.
	code, events := httpGet(t, p2.URL+"/debug/events")
	if code != http.StatusOK || !strings.Contains(string(events), `"type":"recovery"`) {
		t.Fatalf("no recovery event in journal (HTTP %d):\n%s", code, events)
	}
	_, metrics := httpGet(t, p2.URL+"/metrics")
	if !strings.Contains(string(metrics), `sickle_wal_recovered_jobs_total{action="reenqueued"} 1`) {
		t.Fatalf("recovered-jobs counter missing:\n%s", metrics)
	}
}

// TestCrashPointRecoveryStages injects a crash at every WAL stage and
// checks the restart lands in the right place: a crash before the submit
// record leaves nothing to recover; one anywhere between the submit
// record and the terminal record re-runs the job; one after the terminal
// record restores it — result included — without re-running.
func TestCrashPointRecoveryStages(t *testing.T) {
	cases := []struct {
		point  string
		action string // expected recovered-jobs action label ("" = none)
	}{
		{"before:submit", ""},
		{"after:submit", "reenqueued"},
		{"after:start", "reenqueued"},
		{"before:terminal", "reenqueued"},
		{"after:terminal", "restored"},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			t.Setenv(durable.CrashPointEnv, tc.point)
			p := startDurable(t, dir)
			ctx := context.Background()
			c := client.New(p.URL)

			job, err := c.SubmitJob(ctx, &api.SubmitJobRequest{
				Type: api.JobSubsample, Subsample: &testSub,
				IdempotencyKey: api.NewIdempotencyKey()})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			// The process is still alive (only its disk is "dead"), so the
			// job finishes in memory before the kill.
			if done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil || done.State != api.JobSucceeded {
				t.Fatalf("pre-crash job = %+v, %v", done, err)
			}
			p.Kill()

			t.Setenv(durable.CrashPointEnv, "")
			p2 := startDurable(t, dir)
			defer p2.Close(ctx)
			c2 := client.New(p2.URL)
			jobs, err := c2.Jobs(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if tc.action == "" {
				if len(jobs) != 0 {
					t.Fatalf("crash %s: %d jobs survived, want none", tc.point, len(jobs))
				}
				return
			}
			if len(jobs) != 1 || jobs[0].ID != job.ID {
				t.Fatalf("crash %s: recovered jobs = %+v, want just %s", tc.point, jobs, job.ID)
			}
			done, err := c2.WaitJob(ctx, job.ID, 5*time.Millisecond)
			if err != nil || done.State != api.JobSucceeded {
				t.Fatalf("recovered job = %+v, %v", done, err)
			}
			if res, err := c2.JobResult(ctx, job.ID); err != nil || res.Subsample == nil {
				t.Fatalf("recovered result = %+v, %v", res, err)
			}
			_, metrics := httpGet(t, p2.URL+"/metrics")
			want := fmt.Sprintf(`sickle_wal_recovered_jobs_total{action="%s"} 1`, tc.action)
			if !strings.Contains(string(metrics), want) {
				t.Fatalf("crash %s: metrics missing %s:\n%s", tc.point, want, metrics)
			}
		})
	}
}

// TestRecoverSucceededWithoutResultReruns: a succeeded terminal record
// without a result — what a log whose results lived beside it looks like,
// or one whose result did not encode — promises nothing recovery can
// serve, so a restart re-runs the job from its submission to a result.
func TestRecoverSucceededWithoutResultReruns(t *testing.T) {
	dir := t.TempDir()
	payload, err := json.Marshal(api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &testSub})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC().Format(time.RFC3339Nano)
	// The log by hand: header, then length | crc32 | JSON per record.
	wal := []byte("SWAL\x01\x00\x00\x00")
	for _, rec := range []string{
		`{"kind":"submit","id":"job-1","type":"subsample","payload":` + string(payload) + `,"time":"` + now + `"}`,
		`{"kind":"start","id":"job-1","time":"` + now + `"}`,
		`{"kind":"terminal","id":"job-1","state":"succeeded","time":"` + now + `"}`,
	} {
		wal = binary.LittleEndian.AppendUint32(wal, uint32(len(rec)))
		wal = binary.LittleEndian.AppendUint32(wal, crc32.ChecksumIEEE([]byte(rec)))
		wal = append(wal, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	p := startDurable(t, dir)
	ctx := context.Background()
	defer p.Close(ctx)
	c := client.New(p.URL)
	done, err := c.WaitJob(ctx, "job-1", 5*time.Millisecond)
	if err != nil || done.State != api.JobSucceeded {
		t.Fatalf("re-run job = %+v, %v", done, err)
	}
	if res, err := c.JobResult(ctx, "job-1"); err != nil || res.Subsample == nil || res.Subsample.Points == 0 {
		t.Fatalf("re-run result = %+v, %v", res, err)
	}
	_, metrics := httpGet(t, p.URL+"/metrics")
	if !strings.Contains(string(metrics), `sickle_wal_recovered_jobs_total{action="reenqueued"} 1`) {
		t.Fatalf("re-run not counted as reenqueued:\n%s", metrics)
	}
}

// TestIdempotentResubmissionHTTP pins the wire contract: the first keyed
// submission answers 202, an identical retry answers 200 with the same
// job, and the dedup is journaled.
func TestIdempotentResubmissionHTTP(t *testing.T) {
	p := startDurable(t, t.TempDir())
	ctx := context.Background()
	defer p.Close(ctx)

	body, _ := json.Marshal(api.SubmitJobRequest{
		Type: api.JobSubsample, Subsample: &testSub, IdempotencyKey: "retry-key-1"})
	post := func() (int, api.Job) {
		resp, err := http.Post(p.URL+"/v2/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job api.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, job
	}
	code1, job1 := post()
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit HTTP %d, want 202", code1)
	}
	code2, job2 := post()
	if code2 != http.StatusOK {
		t.Fatalf("resubmit HTTP %d, want 200", code2)
	}
	if job2.ID != job1.ID {
		t.Fatalf("resubmit created %s, want original %s", job2.ID, job1.ID)
	}
	c := client.New(p.URL)
	if jobs, err := c.Jobs(ctx); err != nil || len(jobs) != 1 {
		t.Fatalf("jobs = %+v, %v; want exactly one", jobs, err)
	}
	_, events := httpGet(t, p.URL+"/debug/events")
	if !strings.Contains(string(events), `"type":"dedup_hit"`) {
		t.Fatalf("dedup not journaled:\n%s", events)
	}
}

// TestSubsampleDedupCAS: two identical subsample submissions under
// different idempotency keys produce byte-identical results, the second
// served from the content-addressed cache; a corrupted cache blob falls
// back to recomputation instead of serving garbage.
func TestSubsampleDedupCAS(t *testing.T) {
	dir := t.TempDir()
	p := startDurable(t, dir)
	ctx := context.Background()
	defer p.Close(ctx)
	c := client.New(p.URL)

	resultBytes := func(key string) (string, []byte) {
		t.Helper()
		job, err := c.SubmitJob(ctx, &api.SubmitJobRequest{
			Type: api.JobSubsample, Subsample: &testSub, IdempotencyKey: key})
		if err != nil {
			t.Fatalf("submit %s: %v", key, err)
		}
		if done, err := c.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil || done.State != api.JobSucceeded {
			t.Fatalf("job %s = %+v, %v", key, done, err)
		}
		code, body := httpGet(t, p.URL+"/v2/jobs/"+job.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %s: HTTP %d", key, code)
		}
		return job.ID, body
	}

	id1, body1 := resultBytes("cas-a")
	id2, body2 := resultBytes("cas-b")
	if id1 == id2 {
		t.Fatal("distinct keys deduplicated onto one job; CAS path untested")
	}
	// Byte-identical, ElapsedMS and all: the second run is the first run's
	// stored bytes, not a recomputation that happens to agree.
	if !bytes.Equal(body1, body2) {
		t.Fatalf("duplicate subsample results differ:\n%s\nvs\n%s", body1, body2)
	}
	_, metrics := httpGet(t, p.URL+"/metrics")
	if !strings.Contains(string(metrics), "sickle_dedup_hits_total 1") {
		t.Fatalf("dedup hit not counted:\n%s", metrics)
	}
	_, events := httpGet(t, p.URL+"/debug/events?type=dedup_hit")
	if !strings.Contains(string(events), `"kind":"cas"`) {
		t.Fatalf("CAS dedup not journaled:\n%s", events)
	}

	// Corrupt the cache entry: the next duplicate must recompute.
	blob := filepath.Join(dir, "cas", durable.ContentKey(testSub)+".blob")
	raw, err := os.ReadFile(blob)
	if err != nil {
		t.Fatalf("cache blob not on disk: %v", err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(blob, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	id3, body3 := resultBytes("cas-c")
	if id3 == id1 || id3 == id2 {
		t.Fatal("third submission was deduplicated by key, not recomputed")
	}
	var r1, r3 api.JobResult
	if json.Unmarshal(body1, &r1) != nil || json.Unmarshal(body3, &r3) != nil {
		t.Fatal("results do not parse")
	}
	if r3.Subsample == nil || r3.Subsample.Cubes != r1.Subsample.Cubes ||
		r3.Subsample.Points != r1.Subsample.Points {
		t.Fatalf("recomputed result %+v disagrees with original %+v", r3.Subsample, r1.Subsample)
	}
	_, metrics = httpGet(t, p.URL+"/metrics")
	if !strings.Contains(string(metrics), "sickle_dedup_corrupt_total 1") {
		t.Fatalf("corrupt cache read not counted:\n%s", metrics)
	}
}

// TestWALFailureRefusesSubmission: a log that cannot append must reject
// new submissions with the typed unavailable error (HTTP 502) rather
// than accepting work that would silently vanish in a crash.
func TestWALFailureRefusesSubmission(t *testing.T) {
	s, _ := newTestServer(t, Config{DataDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetry(0, 0))
	ctx := context.Background()

	if _, err := c.SubmitSubsampleJob(ctx, &testSub); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	// Kill the log out from under the server: every further append fails.
	if err := s.durable.WAL.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := c.SubmitSubsampleJob(ctx, &testSub)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("submit on dead WAL = %v, want typed unavailable", err)
	}
	body, _ := json.Marshal(api.SubmitJobRequest{Type: api.JobSubsample, Subsample: &testSub})
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("submit on dead WAL HTTP %d, want 502", resp.StatusCode)
	}
}
