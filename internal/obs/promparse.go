package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Minimal Prometheus text-format parser — just enough to validate our own
// exposition in the metrics smoke gate without an external dependency. It
// accepts the subset WriteText emits (plus label sets in any order): comment
// lines, blank lines, and sample lines of the form
//
//	name[{label="value",...}] value [timestamp]
//
// and rejects anything else.

// TextSample is one parsed sample line.
type TextSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the sample identity as name{k="v",...} with sorted labels.
func (s TextSample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// ParseText parses a Prometheus text-format exposition, returning every
// sample in order. A malformed line fails the whole parse with its line
// number.
func ParseText(r io.Reader) ([]TextSample, error) {
	var out []TextSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: text format line %d: %w", lineno, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseValues parses a text exposition like ParseText and returns each
// sample's value keyed by TextSample.Key, so a histogram bucket reads as
// name_bucket{le="..."}.
func ParseValues(r io.Reader) (map[string]float64, error) {
	samples, err := ParseText(r)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]float64, len(samples))
	for _, s := range samples {
		vals[s.Key()] = s.Value
	}
	return vals, nil
}

// Scrape renders r's text exposition and parses it back with ParseValues:
// the values a /metrics scraper would read, through the same text path.
func (r *Registry) Scrape() (map[string]float64, error) {
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		return nil, err
	}
	return ParseValues(&b)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parseSampleLine(line string) (TextSample, error) {
	var s TextSample
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("no value: %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set: %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp], got %q", strings.TrimSpace(rest))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	body = strings.TrimSuffix(strings.TrimSpace(body), ",")
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return nil, fmt.Errorf("label without '=': %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if !validMetricName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		rest := strings.TrimSpace(body[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value: %q", rest)
		}
		val, tail, err := unquoteLabel(rest)
		if err != nil {
			return nil, err
		}
		labels[name] = val
		body = strings.TrimPrefix(strings.TrimSpace(tail), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

// unquoteLabel consumes a leading double-quoted string with \", \\ and \n
// escapes, returning the value and the unconsumed tail.
func unquoteLabel(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("bad escape \\%c in %q", s[i], s)
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value: %q", s)
}
