// Command benchcmp compares benchmark logs: plain `go test -bench`
// output, or the `go test -json` stream that `make bench` writes. A log
// may hold several rounds of the same benchmarks; each result line is
// one reading.
//
//	go run ./cmd/benchcmp OLD NEW
//
// prints, for every benchmark in either log, the median ns/op and the
// minimum allocs/op of each side with the relative change.
//
//	go run ./cmd/benchcmp -gate BASE HEAD
//
// prints the same table and is the regression gate that
// scripts/benchgate.sh (`make benchgate`) runs on the two sides' round
// logs. Both sides ran on one machine, alternating, so the base is its
// own baseline. Every benchmark of the base log that reports allocs/op
// is gated:
//
//   - HEAD's minimum allocs/op over its rounds may not exceed the
//     base's minimum at all, so rows that drift by a few allocations
//     between runs of one binary are gated without slack;
//   - a gated benchmark missing from the HEAD log fails.
//
// ns/op is printed but not gated: on a shared 2-vCPU machine the medians
// of two builds of the same code differed by up to 29%, and code
// placement alone moved SpMM/csr by 19-46%, so no bound separated a 20%
// slowdown from noise. Every violation is listed and the command exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// series is one benchmark's readings across the rounds of a log, in
// log order. A log recorded without -benchmem leaves allocs empty.
type series struct {
	ns     []float64
	allocs []float64
}

// parseLog extracts benchmark result lines from a log. The Output
// fields of a `go test -json` stream are concatenated and re-split on
// newlines first: test2json flushes the benchmark name ("BenchmarkX  \t")
// as its own event before the timing columns arrive, so one logical
// result line
//
//	BenchmarkSpMM/csr-4   50   3937 ns/op   0 B/op   0 allocs/op
//
// often spans several events. A line that is not JSON is taken as plain
// `go test -bench` output. Metric suffixes identify the columns, so
// extra ReportMetric columns (graphs/op, instrs/op) pass through.
func parseLog(r io.Reader) (map[string]*series, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		var ev struct {
			Output string `json:"Output"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			text.WriteString(sc.Text())
			text.WriteByte('\n')
			continue
		}
		text.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	res := map[string]*series{}
	for _, line := range strings.Split(text.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		ns, allocs := -1.0, -1.0
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns < 0 {
			continue
		}
		name := trimProcSuffix(fields[0])
		s := res[name]
		if s == nil {
			s = &series{}
			res[name] = s
		}
		s.ns = append(s.ns, ns)
		if allocs >= 0 {
			s.allocs = append(s.allocs, allocs)
		}
	}
	return res, nil
}

func parseFile(path string) (map[string]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseLog(f)
}

// trimProcSuffix drops the -GOMAXPROCS suffix go test appends to
// benchmark names, so logs from machines with different core counts
// still line up.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum returns the smallest reading, or -1 for none.
func minimum(v []float64) float64 {
	if len(v) == 0 {
		return -1
	}
	return slices.Min(v)
}

// gate checks every benchmark of the base log that reports allocs/op
// against HEAD's and returns the violations, sorted by name.
func gate(base, head map[string]*series) (violations []string) {
	for _, n := range names(base) {
		b := base[n]
		if len(b.allocs) == 0 {
			continue
		}
		if h := head[n]; h == nil || len(h.allocs) == 0 {
			violations = append(violations, n+": missing from HEAD's log")
		} else if bMin, hMin := minimum(b.allocs), minimum(h.allocs); hMin > bMin {
			violations = append(violations, fmt.Sprintf(
				"%s: minimum allocs/op %s -> %s", n, fmtMetric(bMin), fmtMetric(hMin)))
		}
	}
	return violations
}

// names returns the benchmarks of any of the logs, sorted.
func names(logs ...map[string]*series) []string {
	var all []string
	for _, l := range logs {
		for n := range l {
			all = append(all, n)
		}
	}
	slices.Sort(all)
	return slices.Compact(all)
}

func delta(old, new float64) string {
	if new < 0 {
		return "-"
	}
	if old <= 0 {
		if new == 0 {
			return "0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

func fmtMetric(v float64) string {
	if v < 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// summary returns a benchmark's median ns/op and minimum allocs/op, or
// -1s when the log lacks it.
func summary(s *series) (ns, allocs float64) {
	if s == nil {
		return -1, -1
	}
	return median(s.ns), minimum(s.allocs)
}

// diff prints every benchmark of either log side by side.
func diff(w io.Writer, oldRes, newRes map[string]*series) {
	const format = "%-50s %15s %15s %9s %15s %15s %9s\n"
	fmt.Fprintf(w, format, "benchmark", "old ns/op", "new ns/op", "delta", "old allocs/op", "new allocs/op", "delta")
	for _, n := range names(oldRes, newRes) {
		oNs, oAllocs := summary(oldRes[n])
		nNs, nAllocs := summary(newRes[n])
		dNs, dAllocs := delta(oNs, nNs), delta(oAllocs, nAllocs)
		switch {
		case oldRes[n] == nil:
			dNs, dAllocs = "added", "added"
		case newRes[n] == nil:
			dNs, dAllocs = "removed", "removed"
		}
		fmt.Fprintf(w, format, n, fmtMetric(oNs), fmtMetric(nNs), dNs, fmtMetric(oAllocs), fmtMetric(nAllocs), dAllocs)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
	os.Exit(1)
}

func main() {
	gateMode := flag.Bool("gate", false, "fail (exit 1) when a benchmark of BASE allocates more in HEAD or is missing from it")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-gate] OLD.log NEW.log\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldRes, err := parseFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	newRes, err := parseFile(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	diff(w, oldRes, newRes)
	if !*gateMode {
		return
	}
	violations := gate(oldRes, newRes)
	if len(violations) > 0 {
		w.Flush()
		fmt.Fprintf(os.Stderr, "\nbenchgate: %d regression(s):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(w, "\nbenchgate: ok (minimum allocs/op no higher than the base's on every row; ns/op is not gated)\n")
}
