package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is one parsed exposition line: a metric name, its label set,
// and the value. Histograms appear as their component _bucket / _sum /
// _count samples.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses Prometheus text exposition format — the subset
// WritePrometheus emits (one sample per line, optional label braces,
// '#' comment lines skipped). Both cmd/m2mload's server-side quantile
// report and the reconciliation tests consume /metrics through this
// one parser, so what the tests verify is exactly what operators
// scrape.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else if rest[i] == '{' {
		s.Name = rest[:i]
		end := strings.LastIndex(rest, "}")
		if end < i {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	// A timestamp after the value is permitted by the format; take the
	// first field as the value.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(text string, into map[string]string) error {
	for text != "" {
		eq := strings.IndexByte(text, '=')
		if eq < 0 {
			return fmt.Errorf("bad label segment %q", text)
		}
		name := strings.TrimSpace(text[:eq])
		rest := text[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value after %q", name)
		}
		// Scan the quoted value honoring backslash escapes.
		var b strings.Builder
		i := 1
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value for %q", name)
		}
		into[name] = b.String()
		text = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		text = strings.TrimSpace(text)
	}
	return nil
}

// SumSamples sums the values of every sample matching name and the
// given label constraints (nil matches all series of the family).
func SumSamples(samples []Sample, name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// HistogramQuantiles aggregates every `name_bucket` series in samples
// (summing across all non-le label sets), then estimates the given
// quantiles with the same interpolation Prometheus applies. The
// returned count is the total number of observations.
func HistogramQuantiles(samples []Sample, name string, qs []float64) ([]time.Duration, int64) {
	byLE := map[float64]float64{}
	hasInf := false
	var infCum float64
	for _, s := range samples {
		if s.Name != name+"_bucket" {
			continue
		}
		leStr := s.Labels["le"]
		if leStr == "+Inf" {
			hasInf = true
			infCum += s.Value
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue
		}
		byLE[le] += s.Value
	}
	bounds := make([]float64, 0, len(byLE))
	for le := range byLE {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cum := make([]float64, 0, len(bounds)+1)
	for _, le := range bounds {
		cum = append(cum, byLE[le])
	}
	total := 0.0
	if hasInf {
		total = infCum
		cum = append(cum, infCum)
	} else if len(cum) > 0 {
		total = cum[len(cum)-1]
	}
	if len(bounds) == 0 || total == 0 {
		return make([]time.Duration, len(qs)), int64(total)
	}
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = quantileFromCumulative(q, total, cum, bounds)
	}
	return out, int64(total)
}
