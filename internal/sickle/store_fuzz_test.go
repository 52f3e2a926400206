package sickle

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/sampling"
)

// twoCubeShard is a small valid shard: two cube samples of two points each,
// three features and one target per point.
func twoCubeShard(t testing.TB) []byte {
	t.Helper()
	cubes := make([]sampling.CubeSample, 2)
	for c := range cubes {
		cubes[c] = sampling.CubeSample{
			Snapshot: c, Cube: grid.Hypercube{I0: 8 * c, Sx: 8, Sy: 8, Sz: 8, ID: c},
			LocalIdx: []int{3 + c, 500},
			Features: [][]float64{{1, 2, 3}, {4, 5, 6}},
			Targets:  [][]float64{{-1}, {-2}},
		}
	}
	path := filepath.Join(t.TempDir(), "two.skl")
	if err := SaveCubeSamples(path, cubes); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadRejectsInflatedCounts: the counts in a shard are untrusted. Each
// of these files is a few dozen bytes that declares gigabytes; the loader
// must say "corrupt shard", name the path, and allocate next to nothing.
func TestLoadRejectsInflatedCounts(t *testing.T) {
	valid := twoCubeShard(t)
	le := binary.LittleEndian
	patch := func(b []byte, off int, v uint32) []byte {
		b = bytes.Clone(b)
		le.PutUint32(b[off:], v)
		return b
	}
	// The first record's counts are the last three u32s of its header.
	const nPoints, nFeat, nTgt = fileHeaderLen + 8*4, fileHeaderLen + 9*4, fileHeaderLen + 10*4
	const record = recordHeaderLen + 2*4 + 2*3*8 + 2*1*8
	cases := map[string][]byte{
		"nCubes":             patch(valid, 4, 0xFFFFFFFF),
		"nPoints":            patch(valid, nPoints, 0xFFFFFFFF),
		"nFeat":              patch(valid, nFeat, 0x7FFFFFFF),
		"nTgt":               patch(valid, nTgt, 0x7FFFFFFF),
		"n·nf overflows":     patch(patch(valid, nPoints, 0xFFFFFFFF), nFeat, 0xFFFFFFFF),
		"truncated section":  valid[:len(valid)-9],
		"truncated header":   valid[:fileHeaderLen+record+10],
		"30 bytes, 4G cubes": append([]byte("SKL1\xff\xff\xff\xff"), make([]byte, 22)...),
	}
	for name, data := range cases {
		path := filepath.Join(t.TempDir(), "hostile.skl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadCubeSamples(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: loaded a corrupt shard", name)
		}
		if !strings.Contains(err.Error(), "corrupt shard") || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q should say \"corrupt shard\" and name the path", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: loader allocated %d bytes for a %d-byte file", name, grew, len(data))
		}
	}
}

// FuzzLoadCubeSamples feeds the loader arbitrary bytes. It must never
// panic and never allocate more than a small multiple of the input; and
// whatever it accepts must survive Save → Load → Save bit for bit, so the
// codec's own output is always accepted.
func FuzzLoadCubeSamples(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.skl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cubes, err := LoadCubeSamples(in)
		runtime.ReadMemStats(&after)
		// In memory a point costs at most 14× its bytes on disk (an int and
		// two row headers against one u32, when it has no values); the
		// constant covers the reader, the path strings and the runtime.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+(1<<20)); grew > limit {
			t.Fatalf("loader allocated %d bytes for a %d-byte input", grew, len(data))
		}
		if err != nil {
			return
		}
		first := filepath.Join(dir, "first.skl")
		if err := SaveCubeSamples(first, cubes); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadCubeSamples(first)
		if err != nil {
			t.Fatalf("loader rejected the writer's own output: %v", err)
		}
		requireSameCubes(t, reloaded, cubes)
		second := filepath.Join(dir, "second.skl")
		if err := SaveCubeSamples(second, reloaded); err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("Save → Load → Save is not byte-stable")
		}
	})
}

// TestShardAppenderAllocs: a record is encoded into the appender's own
// buffer and written with one Write, so after the first Append has sized
// the buffer a cube sample costs no allocation of its own.
func TestShardAppenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cubes := goldenCubes(t)
	a, err := OpenShardAppender(filepath.Join(t.TempDir(), "allocs.skl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(cubes[0]); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := a.Append(cubes[0]); err != nil {
			t.Fatal(err)
		}
	})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got > 2 {
		t.Fatalf("Append of one cube sample allocates %v objects, want <= 2", got)
	}
}
