// Package config reads the paper's PyYAML case files: a minimal YAML-subset
// parser (nested maps by indentation, scalars, inline [a, b] lists and
// "- item" lists, comments) and LoadPipeline, which turns a case file into
// the sampling pipeline its subsample section describes.
package config

import (
	"fmt"
	"strconv"
	"strings"
)

// Map is a parsed YAML mapping.
type Map map[string]any

// ParseYAML parses the supported YAML subset into a Map.
//
// Supported: `key: value` scalars, `key:` + indented block mappings,
// inline lists `[a, b, c]`, block lists of scalars (`- item`), `#` comments
// and blank lines. Tabs are rejected (as in YAML). Scalars are typed:
// int → int64, float → float64, true/false → bool, null/~ → nil,
// otherwise string (quotes stripped).
func ParseYAML(src string) (Map, error) {
	lines := strings.Split(src, "\n")
	p := &parser{lines: lines}
	m, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	return m, nil
}

type parser struct {
	lines []string
	pos   int
	err   error
}

// peek returns the next meaningful line's indent and content without
// consuming it, or ok=false at EOF.
func (p *parser) peek() (indent int, content string, ok bool) {
	for i := p.pos; i < len(p.lines); i++ {
		raw := p.lines[i]
		trimmed := strings.TrimSpace(stripComment(raw))
		if trimmed == "" {
			continue
		}
		ind := 0
		for _, r := range raw {
			if r == ' ' {
				ind++
			} else {
				break
			}
		}
		return ind, trimmed, true
	}
	return 0, "", false
}

// next consumes and returns the next meaningful line.
func (p *parser) next() (indent int, content string, ok bool) {
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		p.pos++
		if strings.Contains(raw, "\t") {
			// Surface the 1-based line number for the offending tab.
			panicLine := p.pos
			p.err = fmt.Errorf("config: tab character on line %d (YAML requires spaces)", panicLine)
			return 0, "", false
		}
		trimmed := strings.TrimSpace(stripComment(raw))
		if trimmed == "" {
			continue
		}
		ind := 0
		for _, r := range raw {
			if r == ' ' {
				ind++
			} else {
				break
			}
		}
		return ind, trimmed, true
	}
	return 0, "", false
}

func stripComment(s string) string {
	inQuote := rune(0)
	for i, r := range s {
		switch {
		case inQuote != 0:
			if r == inQuote {
				inQuote = 0
			}
		case r == '\'' || r == '"':
			inQuote = r
		case r == '#':
			return s[:i]
		}
	}
	return s
}

func (p *parser) parseBlock(indent int) (Map, error) {
	out := Map{}
	for {
		ind, line, ok := p.peek()
		if p.err != nil {
			return nil, p.err
		}
		if !ok || ind < indent {
			return out, nil
		}
		if ind > indent {
			return nil, fmt.Errorf("config: unexpected indent %d (block at %d): %q", ind, indent, line)
		}
		p.next()
		key, rest, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("config: expected 'key: value', got %q", line)
		}
		key = strings.TrimSpace(key)
		rest = strings.TrimSpace(rest)
		if rest != "" {
			out[key] = parseScalarOrList(rest)
			continue
		}
		// Block value: nested map or dash list.
		cind, cline, cok := p.peek()
		if !cok || cind <= indent {
			out[key] = nil
			continue
		}
		if strings.HasPrefix(cline, "- ") || cline == "-" {
			var list []any
			for {
				lind, lline, lok := p.peek()
				if !lok || lind < cind || !strings.HasPrefix(lline, "-") {
					break
				}
				p.next()
				item := strings.TrimSpace(strings.TrimPrefix(lline, "-"))
				list = append(list, parseScalar(item))
			}
			out[key] = list
			continue
		}
		sub, err := p.parseBlock(cind)
		if err != nil {
			return nil, err
		}
		out[key] = sub
	}
}

func parseScalarOrList(s string) any {
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return []any{}
		}
		parts := strings.Split(inner, ",")
		out := make([]any, len(parts))
		for i, part := range parts {
			out[i] = parseScalar(strings.TrimSpace(part))
		}
		return out
	}
	return parseScalar(s)
}

func parseScalar(s string) any {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	switch s {
	case "null", "~", "":
		return nil
	case "true", "True":
		return true
	case "false", "False":
		return false
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// Accessor helpers with defaults. Missing keys return the fallback.

// GetString fetches a string value.
func (m Map) GetString(key, def string) string {
	if v, ok := m[key]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// GetInt fetches an integer value.
func (m Map) GetInt(key string, def int) int {
	switch v := m[key].(type) {
	case int64:
		return int(v)
	case float64:
		return int(v)
	}
	return def
}

// GetMap fetches a nested mapping.
func (m Map) GetMap(key string) Map {
	if v, ok := m[key].(Map); ok {
		return v
	}
	return Map{}
}
