package obs

import (
	"strings"
	"testing"
)

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
	if errs := LintExposition(text); len(errs) != 0 {
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
			errs := LintExposition(tc.text)
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.want) {
					return
				}
			}
			t.Errorf("want error containing %q, got %v", tc.want, errs)
		})
	}
}

func TestLintOwnRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.", "r").With("x").Inc()
	reg.Histogram("b_seconds", "B.", nil, "r").With("x").Observe(0.2)
	reg.Gauge("c", "C.").With().Set(3)
	RegisterRuntime(reg)
	if errs := LintExposition(reg.Render()); len(errs) != 0 {
		t.Fatalf("registry render fails its own lint: %v", errs)
	}
}
