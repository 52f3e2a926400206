package obs

import (
	"testing"
	"time"
)

// TestRingPushSnapshotDropped: a full ring drops its oldest element per
// push, counts every drop, and snapshots oldest first.
func TestRingPushSnapshotDropped(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 2; i++ {
		r.Push(i)
	}
	if got := r.Snapshot(); len(got) != 2 || got[0] != 1 || got[1] != 2 || r.Dropped() != 0 {
		t.Fatalf("partial ring = %v, dropped %d", got, r.Dropped())
	}
	for i := 3; i <= 7; i++ {
		r.Push(i)
	}
	got := r.Snapshot()
	if len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("wrapped ring = %v, want [5 6 7]", got)
	}
	if r.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", r.Dropped())
	}
	got[0] = -1
	if r.Snapshot()[0] != 5 {
		t.Fatal("snapshot aliases the ring's storage")
	}
}

// TestRingPushDoesNotAllocate pins the hot-path contract: Push sits under
// every recorded span, so neither the filling nor the wrapped ring may
// allocate.
func TestRingPushDoesNotAllocate(t *testing.T) {
	r := NewRing[Span](64)
	sp := Span{TraceID: "t", Name: "server:/v2/infer"}
	if n := testing.AllocsPerRun(200, func() { r.Push(sp) }); n != 0 {
		t.Fatalf("Push allocates %.1f times per call", n)
	}
}

func TestParseSince(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	if got, err := ParseSince("", now); err != nil || !got.IsZero() {
		t.Errorf(`ParseSince("") = %v, %v; want zero`, got, err)
	}
	if got, err := ParseSince("5m", now); err != nil || !got.Equal(now.Add(-5*time.Minute)) {
		t.Errorf(`ParseSince("5m") = %v, %v`, got, err)
	}
	if got, err := ParseSince("2026-01-02T15:04:05Z", now); err != nil || got.Year() != 2026 {
		t.Errorf("RFC3339 parse = %v, %v", got, err)
	}
	if _, err := ParseSince("bogus", now); err == nil {
		t.Error("bogus since should error")
	}
	if got, err := ParseSince("-5m", now); err == nil {
		t.Errorf(`ParseSince("-5m") = %v; want an error, not a cutoff in the future`, got)
	}
}

// FuzzParseSince: the since parser never panics; "" is no cutoff; an
// accepted duration is never negative and gives exactly now minus it; an
// accepted RFC3339 value gives the instant it names.
func FuzzParseSince(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseSince(s, now)
		if err != nil {
			return
		}
		if s == "" {
			if !got.IsZero() {
				t.Fatalf(`ParseSince("") = %v, want the zero time`, got)
			}
			return
		}
		if d, derr := time.ParseDuration(s); derr == nil {
			if d < 0 || !got.Equal(now.Add(-d)) {
				t.Fatalf("ParseSince(%q) = %v, want now - %v with a duration >= 0", s, got, d)
			}
			return
		}
		want, perr := time.Parse(time.RFC3339, s)
		if perr != nil || !got.Equal(want) {
			t.Fatalf("ParseSince(%q) = %v, want the RFC3339 instant %v (%v)", s, got, want, perr)
		}
	})
}
