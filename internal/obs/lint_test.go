package obs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lintExposition checks a Prometheus text exposition (version 0.0.4)
// line by line and returns one error per violation. It enforces the
// conventions Registry.Render promises:
//
//   - every sample line parses (name, optional label block, float value)
//   - every family with samples has # HELP and # TYPE lines, and the TYPE
//     is a known one
//   - counter family names end in _total
//   - histogram families expose _count, _sum, and a terminal +Inf bucket
//     whose cumulative count equals _count
//
// TestLintOwnRender runs it over random registries; TestExpositionFile over
// a live server's saved /metrics.
func lintExposition(text string) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type famState struct {
		typ      string
		help     bool
		samples  int
		sum      bool
		count    float64
		hasCount bool
		infCount float64
		hasInf   bool
	}
	fams := map[string]*famState{}
	fam := func(name string) *famState {
		f, ok := fams[name]
		if !ok {
			f = &famState{}
			fams[name] = f
		}
		return f
	}

	for i, line := range strings.Split(text, "\n") {
		n := i + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				fail(n, "malformed comment line %q", line)
				continue
			}
			if !validMetricName(fields[2]) {
				fail(n, "invalid metric name %q in %s line", fields[2], fields[1])
				continue
			}
			f := fam(fields[2])
			if fields[1] == "HELP" {
				f.help = true
				continue
			}
			if len(fields) != 4 {
				fail(n, "TYPE line missing type: %q", line)
				continue
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
				f.typ = fields[3]
			default:
				fail(n, "unknown TYPE %q for %s", fields[3], fields[2])
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			fail(n, "%v", err)
			continue
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, s)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					base, suffix = trimmed, s
				}
				break
			}
		}
		f, ok := fams[base]
		if !ok || f.typ == "" {
			fail(n, "sample %s has no preceding # TYPE line", name)
			continue
		}
		if !f.help {
			fail(n, "sample %s has no preceding # HELP line", name)
		}
		f.samples++
		switch suffix {
		case "_sum":
			f.sum = true
		case "_count":
			f.hasCount, f.count = true, value
		case "_bucket":
			if labels["le"] == "" {
				fail(n, "histogram bucket %s missing le label", name)
			}
			if labels["le"] == "+Inf" {
				f.hasInf, f.infCount = true, value
			}
		case "":
			if f.typ == "histogram" {
				fail(n, "bare sample %s for histogram family", name)
			}
			if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
				fail(n, "counter %s does not end in _total", name)
			}
			if value < 0 && f.typ == "counter" {
				fail(n, "counter %s has negative value %g", name, value)
			}
		}
	}

	for name, f := range fams {
		if f.typ != "histogram" || f.samples == 0 {
			continue
		}
		if !f.sum {
			errs = append(errs, fmt.Errorf("histogram %s has no _sum sample", name))
		}
		if !f.hasCount {
			errs = append(errs, fmt.Errorf("histogram %s has no _count sample", name))
		}
		if !f.hasInf {
			errs = append(errs, fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", name))
		} else if f.hasCount && f.infCount != f.count {
			errs = append(errs, fmt.Errorf("histogram %s: +Inf bucket %g != _count %g",
				name, f.infCount, f.count))
		}
	}
	return errs
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func validMetricName(s string) bool { return metricNameRe.MatchString(s) }

// parseSample decodes `name{k="v",...} value` (label block optional).
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unterminated label block in %q", line)
		}
		labels, err = parseLabels(rest[brace+1 : end])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%v in %q", err, line)
		}
		rest = rest[end+1:]
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample line %q has no value", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "" {
		return "", nil, 0, fmt.Errorf("sample line %q has no value", line)
	}
	// Drop an optional timestamp field.
	if sp := strings.IndexByte(valStr, ' '); sp >= 0 {
		valStr = valStr[:sp]
	}
	value, err = strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q in %q", valStr, line)
	}
	return name, labels, value, nil
}

// parseLabels decodes the inside of a {k="v",...} block.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair missing '='")
		}
		key := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %s", s[i], key)
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %s", key)
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

func TestLintAcceptsWellFormed(t *testing.T) {
	text := strings.Join([]string{
		`# HELP demo_requests_total Requests.`,
		`# TYPE demo_requests_total counter`,
		`demo_requests_total{route="/x"} 5`,
		`# HELP demo_seconds Latency.`,
		`# TYPE demo_seconds histogram`,
		`demo_seconds_bucket{le="0.1"} 1`,
		`demo_seconds_bucket{le="+Inf"} 2`,
		`demo_seconds_sum 0.3`,
		`demo_seconds_count 2`,
		`# HELP demo_gauge G.`,
		`# TYPE demo_gauge gauge`,
		`demo_gauge -1.5`,
	}, "\n") + "\n"
	if errs := lintExposition(text); len(errs) != 0 {
		t.Fatalf("well-formed text rejected: %v", errs)
	}
}

func TestLintViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"no type", "orphan_total 1\n", "no preceding # TYPE"},
		{"no help", "# TYPE x_total counter\nx_total 1\n", "no preceding # HELP"},
		{"bad type", "# HELP x x\n# TYPE x widget\n", "unknown TYPE"},
		{"counter suffix", "# HELP x x\n# TYPE x counter\nx 1\n", "does not end in _total"},
		{"negative counter", "# HELP x_total x\n# TYPE x_total counter\nx_total -1\n", "negative"},
		{"bad value", "# HELP x x\n# TYPE x gauge\nx banana\n", "unparseable value"},
		{"unterminated labels", "# HELP x x\n# TYPE x gauge\nx{a=\"b 1\n", "unterminated"},
		{"missing inf", "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			`no le="+Inf" bucket`},
		{"missing count", "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
			"no _count"},
		{"inf mismatch", "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
			"+Inf bucket 1 != _count 2"},
		// Text format 0.0.4 knows only HELP and TYPE comments; exemplars
		// live in the /debug/history JSON, never in /metrics.
		{"exemplar line", "# HELP x_total x\n# TYPE x_total counter\n# EXEMPLAR x_total trace-a\nx_total 1\n",
			"malformed comment line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := lintExposition(tc.text)
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.want) {
					return
				}
			}
			t.Errorf("want error containing %q, got %v", tc.want, errs)
		})
	}
}

// TestLintOwnRender is the property test of the one /metrics writer: the
// Render of any registry passes lintExposition. The random registries hold
// every family kind and -Func variant, label values with quotes,
// backslashes, newlines, braces and non-ASCII, histograms with no series
// and with no observation, NaN and ±Inf gauges and observations, and, in
// half of them, the runtime gauges.
func TestLintOwnRender(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	odd := []string{"", "x", `a"b`, `c\d`, "e\nf", "{g}", "h,i=j", "é☃", `\`, `"`, " "}
	vals := []float64{0, 1, -2.5, 1e-300, 3e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	val := func() float64 { return vals[rng.Intn(len(vals))] }
	for trial := range 300 {
		reg := NewRegistry()
		if trial%2 == 0 {
			RegisterRuntime(reg)
		}
		for i := range 1 + rng.Intn(8) {
			name := fmt.Sprintf("prop_f%d", i)
			labels := []string{"a", "b"}[:rng.Intn(3)]
			values := func() []string {
				v := make([]string, len(labels))
				for j := range v {
					v[j] = odd[rng.Intn(len(odd))]
				}
				return v
			}
			switch rng.Intn(6) {
			case 0:
				c := reg.Counter(name+"_total", "C.", labels...)
				for range rng.Intn(4) {
					c.With(values()...).Add(float64(rng.Intn(5)))
				}
			case 1:
				g := reg.Gauge(name, "G.", labels...)
				for range rng.Intn(4) {
					g.With(values()...).Set(val())
				}
			case 2:
				var buckets []float64 // nil: DefBuckets
				for range rng.Intn(4) {
					buckets = append(buckets, rng.NormFloat64())
				}
				slices.Sort(buckets)
				buckets = slices.Compact(buckets)
				h := reg.Histogram(name+"_seconds", "H.", buckets, labels...)
				for range rng.Intn(4) {
					s := h.With(values()...)
					for range rng.Intn(5) {
						s.Observe(val())
					}
				}
			case 3:
				v := float64(rng.Intn(100))
				reg.CounterFunc(name+"_total", "CF.", func() float64 { return v })
			case 4:
				v := val()
				reg.GaugeFunc(name, "GF.", func() float64 { return v })
			case 5:
				m := map[string]float64{}
				for range rng.Intn(4) {
					m[odd[rng.Intn(len(odd))]] = val()
				}
				reg.GaugeMapFunc(name, "GM.", "k", func() map[string]float64 { return m })
			}
		}
		text := reg.Render()
		if errs := lintExposition(text); len(errs) != 0 {
			t.Fatalf("trial %d: Render fails the exposition check: %v\n%s", trial, errs, text)
		}
	}
}

// TestExpositionFile checks a saved /metrics body, the file
// SICKLE_EXPOSITION_FILE names, and skips when it names none (the CI smoke
// saves a live server's). The body must pass lintExposition and carry at
// least one le-bucketed series, so a server that silently dropped its
// latency histograms fails too.
func TestExpositionFile(t *testing.T) {
	path := os.Getenv("SICKLE_EXPOSITION_FILE")
	if path == "" {
		t.Skip("SICKLE_EXPOSITION_FILE names no saved exposition")
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	errs := lintExposition(string(text))
	if !strings.Contains(string(text), `le="`) {
		errs = append(errs, errors.New("no le-bucketed histogram series in the exposition"))
	}
	for _, err := range errs {
		t.Error(err)
	}
}
