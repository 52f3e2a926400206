package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// LintExposition checks a Prometheus text exposition (version 0.0.4)
// line by line and returns one error per violation. It enforces the
// conventions this repo's exporters promise:
//
//   - every sample line parses (name, optional label block, float value)
//   - every family with samples has # HELP and # TYPE lines, and the TYPE
//     is a known one
//   - counter family names end in _total
//   - histogram families expose _count, _sum, and a terminal +Inf bucket
//     whose cumulative count equals _count
//
// Tests run it against the in-process handlers; the CI smoke steps run it
// (via `sickle-top -lint`) against a live server's /metrics.
func LintExposition(text string) []error {
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
