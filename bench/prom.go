package main

import (
	"strconv"
	"strings"
)

// promSample is one line of Prometheus text exposition: the family name
// (a histogram's _sum, _count and _bucket series are families of their
// own here), the raw label block and the value.
type promSample struct {
	name   string
	labels string // `route="/v2/infer",le="0.5"`, "" when unlabelled
	value  float64
}

// promText is one scrape of a /metrics endpoint.
type promText []promSample

// parseProm reads Prometheus text exposition, skipping comments and
// anything it cannot parse as `name[{labels}] value`.
func parseProm(text string) promText {
	var out promText
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 && strings.HasSuffix(s.name, "}") {
			s.name, s.labels = s.name[:i], s.name[i+1:len(s.name)-1]
		}
		out = append(out, s)
	}
	return out
}

// sum adds up every series of one family whose label block contains all
// of the given `key="value"` fragments.
func (p promText) sum(name string, labels ...string) float64 {
	t := 0.0
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(s.labels, l) {
				continue next
			}
		}
		t += s.value
	}
	return t
}

// promDelta is what a set of endpoints counted between two scrapes of
// each: counters only ever grow, so after − before is the window's work.
type promDelta struct{ before, after []promText }

func (d promDelta) sum(name string, labels ...string) float64 {
	t := 0.0
	for i := range d.after {
		t += d.after[i].sum(name, labels...) - d.before[i].sum(name, labels...)
	}
	return t
}
