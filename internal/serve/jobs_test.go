package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/pkg/api"
)

// submit admits an unkeyed subsample job outside any trace.
func submit(jm *JobManager, run JobRunner) (api.Job, error) {
	job, _, err := jm.Submit(context.Background(), api.JobSubsample, run, SubmitOptions{})
	return job, err
}

func waitTerminal(t *testing.T, jm *JobManager, id string) api.Job {
	t.Helper()
	done, ok := jm.Done(id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state", id)
	}
	j, err := jm.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJobContextReleased: a finished job's context is cancelled, so the
// manager's root context does not keep every job's context alive for the
// life of the server.
func TestJobContextReleased(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	var jobCtx context.Context
	job, err := submit(jm, func(ctx context.Context, _ func(string, int, int)) (*api.JobResult, error) {
		jobCtx = ctx
		return &api.JobResult{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, jm, job.ID); final.State != api.JobSucceeded {
		t.Fatalf("final = %+v", final)
	}
	if jobCtx.Err() == nil {
		t.Fatal("a succeeded job's context is still live")
	}
}

func TestJobLifecycleAndResult(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()

	ran := make(chan struct{})
	job, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		progress("work", 1, 2)
		close(ran)
		return &api.JobResult{Subsample: &api.SubsampleResponse{Cubes: 7}}, nil
	})
	if err != nil || job.State != api.JobPending {
		t.Fatalf("submit = %+v, %v", job, err)
	}
	<-ran
	final := waitTerminal(t, jm, job.ID)
	if final.State != api.JobSucceeded || final.Progress.Stage != "work" {
		t.Fatalf("final = %+v", final)
	}
	res, err := jm.Result(job.ID)
	if err != nil || res.Subsample.Cubes != 7 {
		t.Fatalf("result = %+v, %v", res, err)
	}
}

func TestJobResultNotReady(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()

	release := make(chan struct{})
	job, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		<-release
		return &api.JobResult{}, nil
	})
	_, err := jm.Result(job.ID)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeJobNotReady {
		t.Fatalf("result while running = %v, want job_not_ready", err)
	}
	close(release)
	waitTerminal(t, jm, job.ID)
}

// TestJobCancelWhilePending: with one worker slot occupied, a second job
// canceled before it ever starts finishes canceled without running.
func TestJobCancelWhilePending(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		close(started)
		<-release
		return &api.JobResult{}, nil
	})
	<-started
	ran := false
	pending, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		ran = true
		return &api.JobResult{}, nil
	})
	if _, err := jm.Cancel(pending.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, jm, pending.ID)
	if final.State != api.JobCanceled || ran {
		t.Fatalf("pending job finished %s (ran=%v), want canceled without running", final.State, ran)
	}
	close(release)
	waitTerminal(t, jm, blocker.ID)
}

// TestJobTTLPurge: terminal jobs expire after the retention TTL (under an
// injected clock) and then answer job_not_found.
func TestJobTTLPurge(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	now := time.Unix(1000, 0)
	jm.now = func() time.Time { return now }

	job, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{}, nil
	})
	waitTerminal(t, jm, job.ID)

	now = now.Add(30 * time.Second) // within TTL: still visible
	if _, err := jm.Get(job.ID); err != nil {
		t.Fatalf("job purged before TTL: %v", err)
	}
	now = now.Add(2 * time.Minute) // past TTL: purged lazily on access
	_, err := jm.Get(job.ID)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeJobNotFound {
		t.Fatalf("expired job = %v, want job_not_found", err)
	}
	if n := len(jm.List()); n != 0 {
		t.Fatalf("list still shows %d jobs after TTL", n)
	}
}

// TestJobAdmissionIgnoresTerminal: retained finished jobs do not consume
// admission slots — only active jobs count against maxJobs.
func TestJobAdmissionIgnoresTerminal(t *testing.T) {
	jm := NewJobManager(1, 2, time.Minute)
	defer jm.Close()
	noop := func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{}, nil
	}
	for i := 0; i < 5; i++ { // well past maxJobs=2, sequentially
		job, err := submit(jm, noop)
		if err != nil {
			t.Fatalf("submit %d rejected: %v", i, err)
		}
		waitTerminal(t, jm, job.ID)
	}
	if got := len(jm.List()); got != 5 {
		t.Fatalf("retained %d terminal jobs, want 5", got)
	}
}

// TestJobNaNResultKeepsWALOpen: a result encoding/json refuses (a training
// run that diverged to a NaN loss) still finishes its job succeeded, and
// stays out of the terminal record instead of latching the log failed —
// the next submission is still accepted.
func TestJobNaNResultKeepsWALOpen(t *testing.T) {
	st, _, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jm := NewJobManager(1, 4, time.Minute)
	defer jm.Close()
	var walErrs []error
	jm.SetDurable(st, func(err error) { walErrs = append(walErrs, err) })

	job, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{Train: &api.TrainJobResult{FinalLoss: math.NaN()}}, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if final := waitTerminal(t, jm, job.ID); final.State != api.JobSucceeded {
		t.Fatalf("NaN-result job finished %s (%v), want succeeded", final.State, final.Error)
	}
	if res, err := jm.Result(job.ID); err != nil || !math.IsNaN(res.Train.FinalLoss) {
		t.Fatalf("result = %+v, %v; want the NaN loss in memory", res, err)
	}
	next, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{}, nil
	})
	if err != nil {
		t.Fatalf("submission after a NaN result refused: %v", err)
	}
	waitTerminal(t, jm, next.ID)
	if len(walErrs) != 0 {
		t.Fatalf("WAL append errors: %v", walErrs)
	}
}

// TestJobManagerCloseCancelsRunning: Close cancels in-flight jobs, which
// land in canceled with the shutting_down code.
func TestJobManagerCloseCancelsRunning(t *testing.T) {
	jm := NewJobManager(1, 4, time.Minute)

	started := make(chan struct{})
	job, _ := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	jm.Close()
	j, err := jm.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobCanceled || j.Error == nil || j.Error.Code != api.CodeShuttingDown {
		t.Fatalf("after Close: %+v", j)
	}
}

// TestJobRetentionMatchesRule pins retention to its rule under a scripted
// clock: after every step, List and GetByKey answer exactly what a
// brute-force reading of the rule keeps — terminal jobs past the TTL go
// first, then, while more than 4×maxJobs terminal jobs remain, the oldest
// finished. Runners finish in an order that differs from admission, and
// Restore brings back terminal jobs in an order that differs from their
// finish order, as a WAL replay (in submit order) does.
func TestJobRetentionMatchesRule(t *testing.T) {
	const (
		maxJobs = 2 // history cap 4×maxJobs = 8
		ttl     = time.Minute
	)
	// One worker per admissible job, so every admitted runner can park.
	jm := NewJobManager(maxJobs, maxJobs, ttl)
	defer jm.Close()
	var clockMu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	jm.now = clock

	// The reference: every job the rule keeps, and every key ever used.
	type entry struct {
		id, key  string
		terminal bool
		finished time.Time
	}
	model := map[string]*entry{}
	var keys []string
	purge := func() {
		cutoff := clock().Add(-ttl)
		var kept []*entry
		for id, e := range model {
			switch {
			case !e.terminal:
			case e.finished.Before(cutoff):
				delete(model, id)
			default:
				kept = append(kept, e)
			}
		}
		sort.Slice(kept, func(a, b int) bool { return kept[a].finished.Before(kept[b].finished) })
		for _, e := range kept[:max(0, len(kept)-4*maxJobs)] {
			delete(model, e.id)
		}
	}
	holder := func(key string) string {
		for id, e := range model {
			if e.key == key {
				return id
			}
		}
		return ""
	}
	check := func(step string) {
		t.Helper()
		purge()
		var want, got []string
		for id := range model {
			want = append(want, id)
		}
		for _, j := range jm.List() {
			got = append(got, j.ID)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: List = %v, want %v", step, got, want)
		}
		for _, key := range keys {
			j, err := jm.GetByKey(key)
			if id := holder(key); id == "" {
				if ae := api.AsError(err); ae == nil || ae.Code != api.CodeJobNotFound {
					t.Fatalf("%s: GetByKey(%s) = %+v, %v; want job_not_found", step, key, j, err)
				}
			} else if err != nil || j.ID != id {
				t.Fatalf("%s: GetByKey(%s) = %+v, %v; want %s", step, key, j, err, id)
			}
		}
	}

	gates := map[string]chan struct{}{}
	submit := func(key string) string {
		t.Helper()
		gate := make(chan struct{})
		run := func(ctx context.Context, _ func(string, int, int)) (*api.JobResult, error) {
			select {
			case <-gate:
				return &api.JobResult{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		advance(100 * time.Millisecond) // admission order is creation order
		purge()                         // Submit purges before it looks the key up
		held := holder(key)
		job, dedup, err := jm.Submit(context.Background(), api.JobSubsample, run, SubmitOptions{Key: key})
		switch {
		case err != nil:
			t.Fatalf("submit %q: %v", key, err)
		case key != "" && held != "":
			if !dedup || job.ID != held {
				t.Fatalf("submit %q = %s (dedup %v), want the holder %s", key, job.ID, dedup, held)
			}
			return held
		case dedup:
			t.Fatalf("submit %q deduplicated onto %s", key, job.ID)
		}
		if key != "" && !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
		gates[job.ID] = gate
		model[job.ID] = &entry{id: job.ID, key: key}
		check("submit " + job.ID)
		return job.ID
	}
	// release lets a parked runner return one scripted second later than
	// the previous step, so no two jobs share a finish time.
	release := func(id string) {
		t.Helper()
		advance(time.Second)
		done, ok := jm.Done(id)
		if !ok {
			t.Fatalf("job %s unknown before it finished", id)
		}
		close(gates[id])
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished", id)
		}
		model[id].terminal, model[id].finished = true, clock()
		check("finish " + id)
	}

	// A submit storm past the cap, each pair finishing in reverse
	// admission order; every third job is keyed.
	for round := 0; round < 10; round++ {
		var ids []string
		for i := 0; i < maxJobs; i++ {
			key := ""
			if n := round*maxJobs + i; n%3 == 0 {
				key = fmt.Sprintf("storm-%d", n)
			}
			ids = append(ids, submit(key))
		}
		slices.Reverse(ids)
		for _, id := range ids {
			release(id)
		}
	}

	// Recovered terminal jobs arrive in WAL (submit) order, not finish
	// order: some land among the live history, one is older than all of
	// it, and one is past the TTL already.
	for i, age := range []time.Duration{2500, 30500, 500, 90500, 6500} {
		id, key := fmt.Sprintf("job-%d", 1000+i), fmt.Sprintf("wal-%d", i)
		finished := clock().Add(-age * time.Millisecond)
		jm.Restore(api.Job{
			ID: id, Type: api.JobSubsample, State: api.JobSucceeded, IdempotencyKey: key,
			CreatedAt: finished.Add(-time.Second), FinishedAt: finished,
		}, nil, &api.JobResult{})
		keys = append(keys, key)
		model[id] = &entry{id: id, key: key, terminal: true, finished: finished}
		check("restore " + id)
	}

	// TTL steps, with a live keyed job, a resubmit of a held key and a
	// reused key, until every finished job has expired.
	parked := submit("late")
	for step := 0; step < 6; step++ {
		advance(15 * time.Second)
		check(fmt.Sprintf("ttl step %d", step))
		if step == 2 {
			submit("late")      // held: deduplicated
			release(submit("")) // one more finish among the expiring ones
		}
		if step == 4 {
			purge()
			if id := holder("storm-18"); id != "" {
				t.Fatalf("storm-18's job %s outlived the TTL", id)
			}
			submit("storm-18") // its job expired: the key admits anew
		}
	}
	release(parked)
	advance(2 * ttl)
	check("all expired")
	if n := len(jm.List()); n != 1 {
		t.Fatalf("%d jobs left, want only the re-admitted storm-18", n)
	}
}
