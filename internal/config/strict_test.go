package config

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

const withInputs = "shared:\n  input_vars: [u]\n"

// TestParseCaseStrictSections: serve, shard, stream and obs are this repo's
// own sections, so a misspelled key, a scalar of the wrong type or a
// fractional value for an integer key is an error naming section.key — one
// per offending key — while the artifact's sections stay permissive.
func TestParseCaseStrictSections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // a substring per expected error line, in order; nil = accepted
	}{
		{"silently dropped at the parent", withInputs + `shard:
  replication: "2"
  max_failovr: 5
serve:
  addr: 8080
  window_ms: 2.9
stream:
  ranks: two
`, []string{"serve.addr: want a string, got 8080", "serve.window_ms: want an integer, got 2.9",
			`shard.replication: want an integer, got 2`, "stream.ranks: want an integer, got two",
			"shard.max_failovr: unknown key"}},
		{"scalar where a list belongs", withInputs + "shard:\n  replicas: http://h1:8080\n",
			[]string{"shard.replicas: want a list"}},
		{"list where a scalar belongs", withInputs + "obs:\n  event_capacity: [1, 2]\n",
			[]string{"obs.event_capacity: want an integer"}},
		{"bool for an integer", withInputs + "serve:\n  workers: true\n",
			[]string{"serve.workers: want an integer, got true"}},
		{"nested map for a scalar", withInputs + "serve:\n  addr:\n    host: x\n",
			[]string{"serve.addr: want a string"}},
		{"section that is not a mapping", withInputs + "stream: 4\n",
			[]string{"stream: want a mapping, got 4"}},
		{"null, a float with no fraction and an empty section are fine",
			withInputs + "serve:\n  addr:\n  max_batch: 8.0\n  workers: ~\nshard:\n", nil},
		{"the artifact's sections keep keys this repo does not model",
			withInputs + "  halo: 3\nsubsample:\n  scheduler: slurm\ntrain:\n  lr: 0.001\n  epochs: many\n", nil},
	}
	for _, tc := range cases {
		c, err := ParseCase(tc.src)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, c)
			continue
		}
		lines := strings.Split(err.Error(), "\n")
		if len(lines) != len(tc.want) {
			t.Errorf("%s: %d errors, want %d:\n%v", tc.name, len(lines), len(tc.want), err)
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("%s: error %d = %q, want it to contain %q", tc.name, i, lines[i], w)
			}
		}
	}
}

// readmeObs is the README's `obs:` example, comments included.
const readmeObs = withInputs + `obs:
  history_interval_ms: 1000
  history_capacity: 600
  event_capacity: 1024
  slos:
    - latency:/v2/infer:250ms:99.9      # p-latency: route, threshold, target %
    - availability:/v2/infer:99.9       # error-rate: route ("*" = all), target %
    - queue_depth:64:99                 # queue samples <= depth, target %
`

func TestParseCaseReadmeObsExample(t *testing.T) {
	c, err := ParseCase(readmeObs)
	if err != nil {
		t.Fatal(err)
	}
	want := ObsCase{HistoryIntervalMS: 1000, HistoryCapacity: 600, EventCapacity: 1024,
		SLOs: []string{"latency:/v2/infer:250ms:99.9", "availability:/v2/infer:99.9", "queue_depth:64:99"}}
	if !reflect.DeepEqual(c.Obs, want) {
		t.Fatalf("obs section = %+v, want %+v", c.Obs, want)
	}
}

// strictKeys is the fuzz oracle's own copy of what the four strict sections
// define, kept apart from ParseCase's reads so one cannot excuse the other.
var strictKeys = map[string][]string{
	"serve": {"addr", "max_batch", "window_ms", "workers", "queue_cap", "cache_entries", "replicas",
		"job_workers", "job_ttl_min", "data_dir", "debug_addr"},
	"shard": {"addr", "replicas", "probe_ms", "fail_after", "max_failover", "replication", "vnodes",
		"debug_addr"},
	"stream": {"ranks", "window", "merge_every", "reservoir", "shard_prefix"},
	"obs":    {"history_interval_ms", "history_capacity", "event_capacity", "slos"},
}

// FuzzParseCase: the case parser never panics, and whatever it accepts has
// only known keys in the four strict sections.
func FuzzParseCase(f *testing.F) {
	f.Add(sampleCase)
	f.Add(readmeObs)
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseCase(src); err != nil {
			return
		}
		m, err := ParseYAML(src)
		if err != nil {
			t.Fatalf("ParseCase accepted what ParseYAML rejects: %v", err)
		}
		for sec, keys := range strictKeys {
			sm, isMap := m[sec].(Map)
			if !isMap && m[sec] != nil {
				t.Fatalf("accepted %s: %v, which is not a mapping", sec, m[sec])
			}
			for key := range sm {
				if !slices.Contains(keys, key) {
					t.Fatalf("accepted unknown key %s.%s", sec, key)
				}
			}
		}
	})
}
