package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition
// format version 0.0.4, the format every Prometheus-compatible scraper
// accepts.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes the whole registry in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, counters,
// gauges, and full histogram series (`_bucket{le=...}` cumulative,
// `_sum`, `_count`), from which histogram_quantile() derives latency
// quantiles. Families are emitted in sorted name order, making the
// output diffable across scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	infos := make(map[string][]LabelPair, len(r.infos))
	for name, pairs := range r.infos {
		infos[name] = pairs
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(bw, "# HELP %s Monotonic counter %s.\n", name, name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, counters[name])
	}
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(bw, "# HELP %s Gauge %s.\n", name, name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s %s\n", name, formatPromValue(gauges[name]))
	}
	// Info metrics: the Prometheus *_info idiom, a constant-1 gauge whose
	// labels carry identity (build version, model generation, ...).
	for _, name := range sortedKeys(infos) {
		fmt.Fprintf(bw, "# HELP %s Info metric %s; identity is in the labels.\n", name, name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		fmt.Fprintf(bw, "%s%s 1\n", name, renderLabels(infos[name]))
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		count, sum := h.Snapshot()
		fmt.Fprintf(bw, "# HELP %s Histogram %s.\n", name, name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for _, b := range h.Buckets() {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatLe(b.UpperBound), b.Count)
		}
		fmt.Fprintf(bw, "%s_sum %s\n", name, formatPromValue(sum))
		fmt.Fprintf(bw, "%s_count %d\n", name, count)
	}
	return bw.Flush()
}

// WritePrometheus writes the default registry in exposition format.
func WritePrometheus(w io.Writer) error { return defaultRegistry.WritePrometheus(w) }

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatPromValue renders a sample value per the exposition format:
// shortest round-trip float, with the spec spellings of the special
// values.
func formatPromValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Exposition-format line grammar, per the Prometheus text format spec
// (version 0.0.4). The conformance checker below enforces it strictly so
// the /metrics surface cannot silently drift away from what scrapers
// parse.
var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)( [0-9]+)?$`)
	promLeRe     = regexp.MustCompile(`le="((?:[^"\\]|\\.)*)"`)
)

// CheckExposition validates a Prometheus text exposition document
// against a strict line grammar: every line must be a HELP comment, a
// TYPE declaration (appearing before its family's first sample, at most
// once) or a well-formed sample; sample names must belong to a declared
// family; and every histogram family must carry cumulative
// non-decreasing buckets ending in le="+Inf" whose count equals
// <name>_count. It returns nil for conforming input and a descriptive
// error naming the first offending line otherwise. The CI test matrix
// runs it against the live /metrics output.
func CheckExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	types := map[string]string{} // family -> counter|gauge|histogram|...
	sampled := map[string]bool{} // family has emitted a sample
	bucketLast := map[string]struct {
		le  float64
		cum int64
		has bool
		inf bool
	}{}
	sums := map[string]bool{}
	counts := map[string]int64{}
	infCounts := map[string]int64{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: comment is neither HELP nor TYPE: %q", lineNo, line)
			}
			name := fields[2]
			if !promNameRe.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE needs a kind: %q", lineNo, line)
				}
				kind := fields[3]
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE kind %q", lineNo, kind)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if sampled[name] {
					return fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				types[name] = kind
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample line: %q", lineNo, line)
		}
		sample, labels, value := m[1], m[2], m[3]
		family, ok := familyOf(sample, types)
		if !ok {
			return fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, sample)
		}
		sampled[family] = true
		if types[family] != "histogram" {
			continue
		}
		switch {
		case sample == family+"_bucket":
			lem := promLeRe.FindStringSubmatch(labels)
			if lem == nil {
				return fmt.Errorf("line %d: histogram bucket without le label: %q", lineNo, line)
			}
			cum, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: bucket count %q is not an integer", lineNo, value)
			}
			last := bucketLast[family]
			if last.inf {
				return fmt.Errorf("line %d: bucket after le=\"+Inf\" for %s", lineNo, family)
			}
			if lem[1] == "+Inf" {
				last.inf = true
				infCounts[family] = cum
			} else {
				le, err := strconv.ParseFloat(lem[1], 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le value %q", lineNo, lem[1])
				}
				if last.has && le <= last.le {
					return fmt.Errorf("line %d: %s buckets not in increasing le order (%g after %g)", lineNo, family, le, last.le)
				}
				if last.has && cum < last.cum {
					return fmt.Errorf("line %d: %s cumulative bucket count decreased (%d after %d)", lineNo, family, cum, last.cum)
				}
				last.le = le
			}
			last.cum = cum
			last.has = true
			bucketLast[family] = last
		case sample == family+"_sum":
			sums[family] = true
		case sample == family+"_count":
			cum, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: histogram count %q is not an integer", lineNo, value)
			}
			counts[family] = cum
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for family, kind := range types {
		if kind != "histogram" || !sampled[family] {
			continue
		}
		last, ok := bucketLast[family]
		if !ok || !last.inf {
			return fmt.Errorf("histogram %s lacks an le=\"+Inf\" bucket", family)
		}
		if !sums[family] {
			return fmt.Errorf("histogram %s lacks a _sum sample", family)
		}
		cnt, ok := counts[family]
		if !ok {
			return fmt.Errorf("histogram %s lacks a _count sample", family)
		}
		if infCounts[family] != cnt {
			return fmt.Errorf("histogram %s: le=\"+Inf\" bucket %d != _count %d", family, infCounts[family], cnt)
		}
	}
	return nil
}

// familyOf resolves a sample name to its declared family: itself, or —
// for histogram series — the base name of a _bucket/_sum/_count suffix.
func familyOf(sample string, types map[string]string) (string, bool) {
	if _, ok := types[sample]; ok {
		return sample, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base != sample && types[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

// renderLabels renders info label pairs as a Prometheus label set.
func renderLabels(pairs []LabelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.Key, p.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// formatLe renders a bucket upper bound as a Prometheus le label value.
func formatLe(bound float64) string {
	if math.IsInf(bound, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(bound, 'g', -1, 64)
}
