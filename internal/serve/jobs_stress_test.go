package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/pkg/api"
)

// TestJobManagerChurnRace hammers the manager from every direction at
// once — submitters, cancelers, status readers, TTL expiry — under a tiny
// retention TTL so purge runs constantly. The -race CI step is the real
// assertion; the test itself checks the manager stays consistent: every
// submitted job reaches a terminal state and is then either readable or
// cleanly expired, never stuck.
func TestJobManagerChurnRace(t *testing.T) {
	jm := NewJobManager(4, 32, 20*time.Millisecond)
	defer jm.Close()

	const (
		submitters    = 4
		perSubmitter  = 30
		totalAttempts = submitters * perSubmitter
	)
	var (
		mu  sync.Mutex
		ids []string
	)
	pickID := func(rng *rand.Rand) string {
		mu.Lock()
		defer mu.Unlock()
		if len(ids) == 0 {
			return ""
		}
		return ids[rng.Intn(len(ids))]
	}

	// Half the jobs finish on their own quickly; half park until canceled
	// or a deadline fires, so cancelers race real running work.
	runner := func(slow bool) JobRunner {
		return func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
			progress("work", 1, 2)
			if slow {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(30 * time.Millisecond):
				}
			}
			progress("work", 2, 2)
			return &api.JobResult{Subsample: &api.SubsampleResponse{Cubes: 1}}, nil
		}
	}

	var wg sync.WaitGroup
	stopAux := make(chan struct{})
	// Cancelers and readers churn until the submitters are done.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopAux:
					return
				default:
				}
				if id := pickID(rng); id != "" {
					jm.Cancel(id) // job_not_found after TTL expiry is fine
				}
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}(int64(500 + g))
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopAux:
					return
				default:
				}
				jm.List()
				jm.Stats()
				if id := pickID(rng); id != "" {
					jm.Get(id)
					jm.Result(id)
				}
			}
		}(int64(600 + g))
	}

	overloaded := 0
	var subWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func(seed int64) {
			defer subWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				job, err := submit(jm, runner(rng.Intn(2) == 0))
				if err != nil {
					var ae *api.Error
					if !errors.As(err, &ae) || ae.Code != api.CodeOverloaded {
						t.Errorf("submit failed with %v, want only overloaded rejections", err)
						return
					}
					mu.Lock()
					overloaded++
					mu.Unlock()
					time.Sleep(time.Millisecond)
					continue
				}
				mu.Lock()
				ids = append(ids, job.ID)
				mu.Unlock()
			}
		}(int64(700 + g))
	}
	subWG.Wait()
	close(stopAux)
	wg.Wait()

	// Every admitted job reaches a terminal state (slow ones are bounded by
	// their 30ms deadline), after which it is either still readable and
	// terminal, or already TTL-purged.
	mu.Lock()
	admitted := append([]string(nil), ids...)
	mu.Unlock()
	if len(admitted) == 0 {
		t.Fatalf("no jobs admitted out of %d attempts (%d overloaded)", totalAttempts, overloaded)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range admitted {
		for {
			j, err := jm.Get(id)
			if err != nil {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeJobNotFound {
					t.Fatalf("Get(%s) = %v", id, err)
				}
				break // expired after reaching a terminal state
			}
			if j.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, j.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Logf("churn: %d admitted, %d overloaded rejections", len(admitted), overloaded)
}

// TestJobCancelAfterTerminal pins the cancel-after-terminal contract:
// cancel on a terminal job is an idempotent no-op returning the terminal
// snapshot, result fetches answer deterministically (the result for
// succeeded, typed job_canceled for canceled), and repeating any of it
// changes nothing.
func TestJobCancelAfterTerminal(t *testing.T) {
	jm := NewJobManager(2, 8, time.Minute)
	defer jm.Close()

	// Succeeded job: cancel must not disturb it.
	done, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return &api.JobResult{Subsample: &api.SubsampleResponse{Cubes: 3}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jm, done.ID)
	for i := 0; i < 2; i++ { // twice: idempotent
		snap, err := jm.Cancel(done.ID)
		if err != nil || snap.State != api.JobSucceeded {
			t.Fatalf("cancel #%d on succeeded job = %+v, %v", i+1, snap, err)
		}
		res, err := jm.Result(done.ID)
		if err != nil || res.Subsample.Cubes != 3 {
			t.Fatalf("result after cancel #%d = %+v, %v", i+1, res, err)
		}
	}

	// Canceled job: every later cancel/result answers the same way.
	started := make(chan struct{})
	parked, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := jm.Cancel(parked.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, jm, parked.ID)
	if final.State != api.JobCanceled || final.Error == nil || final.Error.Code != api.CodeJobCanceled {
		t.Fatalf("canceled job = %+v", final)
	}
	for i := 0; i < 2; i++ {
		snap, err := jm.Cancel(parked.ID)
		if err != nil || snap.State != api.JobCanceled {
			t.Fatalf("re-cancel #%d = %+v, %v", i+1, snap, err)
		}
		_, err = jm.Result(parked.ID)
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Code != api.CodeJobCanceled {
			t.Fatalf("result of canceled job #%d = %v, want typed job_canceled", i+1, err)
		}
	}

	// Failed job: the result endpoint replays the job's own typed error.
	failed, err := submit(jm, func(ctx context.Context, progress func(string, int, int)) (*api.JobResult, error) {
		return nil, api.Errorf(api.CodeNotFound, "no such dataset")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, jm, failed.ID)
	_, err = jm.Result(failed.ID)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("result of failed job = %v, want its own not_found", err)
	}
}
