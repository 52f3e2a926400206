package events

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func scriptedJournal(capacity int) (*Journal, *time.Time) {
	j := NewJournal("test", capacity)
	t := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	j.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Second)
		return t
	}
	return j, &t
}

func TestEmitAndFilters(t *testing.T) {
	j, _ := scriptedJournal(16)
	j.Emit(TypeFailover, "hop", "trace-1", "replica", "r1", "attempt", "1")
	j.Emit(TypeEjection, "gone", "", "replica", "r1")
	j.Emit(TypeFailover, "hop again", "trace-2")

	all := j.Events(0, "", time.Time{})
	if len(all) != 3 {
		t.Fatalf("events = %d, want 3", len(all))
	}
	if all[0].Seq != 1 || all[2].Seq != 3 {
		t.Errorf("sequence numbers = %d..%d, want 1..3", all[0].Seq, all[2].Seq)
	}
	if all[0].TraceID != "trace-1" || all[0].Attrs["replica"] != "r1" {
		t.Errorf("event 0 = %+v, want trace-1 with replica attr", all[0])
	}
	if got := j.Events(0, TypeFailover, time.Time{}); len(got) != 2 {
		t.Errorf("type filter matched %d, want 2", len(got))
	}
	if got := j.Events(1, "", time.Time{}); len(got) != 1 || got[0].Type != TypeFailover || got[0].Msg != "hop again" {
		t.Errorf("limit 1 = %+v, want just the newest event", got)
	}
	since := all[1].Time
	if got := j.Events(0, "", since); len(got) != 2 {
		t.Errorf("since filter matched %d, want 2", len(got))
	}
}

func TestRingEvictionCountsDropped(t *testing.T) {
	j, _ := scriptedJournal(4)
	for i := 0; i < 10; i++ {
		j.Emit(TypeStall, fmt.Sprintf("e%d", i), "")
	}
	got := j.Events(0, "", time.Time{})
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("e%d", 6+i); e.Msg != want {
			t.Errorf("event %d = %q, want %q (oldest first after wrap)", i, e.Msg, want)
		}
	}
	if j.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", j.Dropped())
	}
}

func TestRegisterExposesDroppedCounter(t *testing.T) {
	j, _ := scriptedJournal(2)
	reg := obs.NewRegistry()
	j.Register(reg)
	j.Emit(TypeStall, "a", "")
	j.Emit(TypeStall, "b", "")
	j.Emit(TypeStall, "c", "")
	text := reg.Render()
	if !strings.Contains(text, "sickle_obs_events_dropped_total 1") {
		t.Errorf("render missing dropped counter:\n%s", text)
	}
}

func TestMergeIsTimeOrderedAndStable(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	at := func(s int, tier, msg string) Event {
		return Event{Time: base.Add(time.Duration(s) * time.Second), Tier: tier, Msg: msg}
	}
	merged := Merge(
		[]Event{at(1, "shard", "a"), at(5, "shard", "d")},
		[]Event{at(3, "serve", "b"), at(5, "serve", "e")},
		[]Event{at(4, "serve", "c")},
	)
	var msgs []string
	for _, e := range merged {
		msgs = append(msgs, e.Msg)
	}
	// Equal timestamps keep list order (shard before serve here).
	if got := strings.Join(msgs, ""); got != "abcde" {
		t.Errorf("merged order = %q, want abcde", got)
	}
}

func TestHandleEventsJSON(t *testing.T) {
	j, _ := scriptedJournal(8)
	j.Emit(TypeEjection, "gone", "", "replica", "r0")
	j.Emit(TypeReadmission, "back", "", "replica", "r0")

	rec := httptest.NewRecorder()
	j.HandleEvents(rec, httptest.NewRequest("GET", "/debug/events?type=ejection", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var p Payload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Tier != "test" || len(p.Events) != 1 || p.Events[0].Type != TypeEjection {
		t.Fatalf("payload = %+v, want one ejection event from tier test", p)
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	j.Emit(TypeStall, "x", "")
	if j.Dropped() != 0 || j.Events(0, "", time.Time{}) != nil {
		t.Error("nil journal must be inert")
	}
}

// TestConcurrentEmit is the journal's -race proof.
func TestConcurrentEmit(t *testing.T) {
	j := NewJournal("race", 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Emit(TypeFailover, "hop", "t", "i", "x")
				j.Events(16, "", time.Time{})
				j.Dropped()
			}
		}()
	}
	wg.Wait()
	if got := j.Events(0, "", time.Time{}); len(got) != 32 {
		t.Fatalf("ring holds %d, want 32", len(got))
	}
}
