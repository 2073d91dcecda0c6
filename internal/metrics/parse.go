package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Sample is one parsed exposition line.
type Sample struct {
	Name     string
	Labels   Labels
	Value    float64
	Exemplar *Exemplar // OpenMetrics exemplar clause, if the line had one
}

// SeriesKey identifies a time series across scrapes.
func (s Sample) SeriesKey() string { return s.Name + s.Labels.String() }

// Parse reads the text exposition format, skipping comments and blanks.
// It accepts exactly the subset Render produces (names, optional label
// sets, float values) and rejects malformed lines rather than guessing.
// Names and label values are substrings of text; TSDB.Append copies them.
func Parse(text string) ([]Sample, error) {
	out := make([]Sample, 0, strings.Count(text, "\n")+1)
	for lineNo := 1; text != ""; lineNo++ {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	var s Sample
	// The name runs to the label set or to the space before the value.
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	}
	s.Name = line[:end]
	if err := validName(s.Name); err != nil {
		return s, err
	}
	rest := line[end:]
	if rest[0] == '{' {
		labels, n, err := parseLabelSet(rest)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = rest[n:]
		if !strings.HasPrefix(rest, " ") {
			return s, fmt.Errorf("no value separator in %q", line)
		}
	}
	// An OpenMetrics exemplar rides after " # ". It is looked for only
	// past the label set, where no quoted value can contain one.
	if hash := strings.Index(rest, " # "); hash >= 0 {
		ex, err := parseExemplar(strings.TrimSpace(rest[hash+3:]))
		if err != nil {
			return s, fmt.Errorf("bad exemplar in %q: %w", line, err)
		}
		s.Exemplar = ex
		rest = rest[:hash]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabelSet parses the {k="v",...} label set text starts with and
// returns it with the number of bytes it spans. Values are read as Go
// quoted strings, the syntax Labels.appendKey writes them in.
func parseLabelSet(text string) (Labels, int, error) {
	var labels Labels
	rest := text[1:]
	for !strings.HasPrefix(rest, "}") {
		if rest == "" {
			return nil, 0, fmt.Errorf("unterminated label set")
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, 0, fmt.Errorf("malformed label")
		}
		quoted, err := strconv.QuotedPrefix(rest[eq+1:])
		if err != nil || quoted[0] != '"' {
			return nil, 0, fmt.Errorf("malformed label value")
		}
		value, _ := strconv.Unquote(quoted) // QuotedPrefix validated it
		if labels == nil {
			labels = make(Labels)
		}
		labels[rest[:eq]] = value
		rest = strings.TrimPrefix(rest[eq+1+len(quoted):], ",")
	}
	return labels, len(text) - len(rest) + 1, nil
}

// parseExemplar parses the clause after " # ":
//
//	{trace_id="4ba1..."} 0.042 1719321600.123
//
// The timestamp is optional, matching OpenMetrics.
func parseExemplar(text string) (*Exemplar, error) {
	if !strings.HasPrefix(text, "{") {
		return nil, fmt.Errorf("missing label set")
	}
	labels, n, err := parseLabelSet(text)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(text[n:])
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("want value [timestamp] after labels")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad value: %w", err)
	}
	e := &Exemplar{TraceID: labels["trace_id"], Value: v}
	if len(fields) == 2 {
		ts, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad timestamp: %w", err)
		}
		// Rendered at millisecond resolution; rounding here makes the
		// render/parse loop lossless.
		e.Time = time.UnixMilli(int64(math.Round(ts * 1000)))
	}
	return e, nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}
