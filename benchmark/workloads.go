package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"mvpar/internal/bench"
	"mvpar/internal/deps"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// request is one generated POST /v1/classify submission together with
// what its answer must look like.
type request struct {
	name   string
	source string
	loops  int
	// oracle is the base program's oracle verdict per loop ID. The
	// perturbations (renamed array, new float constant) must not change
	// it, so every answer is checked against it.
	oracle map[int]bool
}

// workload is one traffic mix. Every request is a pure function of
// (seed, index): the server sees only generated programs, and a run
// replays from its seed. No two requests of a stream share a cache key.
type workload struct {
	name string
	gen  func(seed int64, i int) request
}

// verifySeed fixes the verify set, so oracle_agreement does not depend on
// the run's seed and repeats exactly.
const verifySeed = 0

// verifySet is the first n programs of the workload's stream at
// verifySeed, under fresh names so none of them is answered from cache.
func (w *workload) verifySet(n int) []request {
	out := make([]request, n)
	for i := range out {
		r := w.gen(verifySeed, i)
		r.name = fmt.Sprintf("verify%d-%s", i, r.name)
		out[i] = r
	}
	return out
}

// kernels are the three loadgen kernels (map, reduction, recurrence) with
// the array name (%[1]s) and the float constant (%[2]s) left open.
var kernels = []struct{ name, format, constant string }{
	{"map", "float %[1]s[64]; float b[64];\nvoid main() { for (int i = 0; i < 64; i++) { %[1]s[i] = b[i] * %[2]s; } }\n", "2.0"},
	{"reduce", "float %[1]s[64]; float s[1];\nvoid main() { for (int i = 0; i < 64; i++) { s[0] = s[0] + %[1]s[i] * %[2]s; } }\n", "1.0"},
	{"recurrence", "float %[1]s[64];\nvoid main() { for (int i = 1; i < 64; i++) { %[1]s[i] = %[1]s[i-1] * %[2]s; } }\n", "0.5"},
}

// npbApps are the corpus applications npb-uncached cycles through.
var npbApps = []string{"IS", "CG", "FT", "MG"}

// workloads builds the traffic mixes. It profiles each base program once
// for the oracle verdicts its perturbed copies are checked against.
func workloads() ([]*workload, error) {
	kernelOracle := make([]map[int]bool, len(kernels))
	for k, kn := range kernels {
		v, err := oracleVerdicts(kn.name, fmt.Sprintf(kn.format, "a", kn.constant))
		if err != nil {
			return nil, err
		}
		kernelOracle[k] = v
	}
	byName := map[string]bench.App{}
	for _, app := range bench.Corpus() {
		byName[app.Name] = app
	}
	var apps []bench.App
	var appOracle []map[int]bool
	for _, name := range npbApps {
		app, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("corpus has no application %s", name)
		}
		v, err := oracleVerdicts(app.Name, app.Source)
		if err != nil {
			return nil, err
		}
		apps = append(apps, app)
		appOracle = append(appOracle, v)
	}
	// Why each workload exists is in README.md and BENCHMARK.json.
	return []*workload{
		{
			// Tiny uncached programs: fixed per-request costs dominate.
			name: "tiny-uncached",
			gen: func(seed int64, i int) request {
				k := balanced(seed, i, len(kernels))
				kn := kernels[k]
				r := uint64(mix(seed, i))
				array := fmt.Sprintf("a%d_r%d", r%1000, i)
				constant := strconv.FormatFloat(0.1+0.9*float64(r>>11)/(1<<53), 'f', 6, 64)
				return request{name: fmt.Sprintf("tiny-%d", i), source: fmt.Sprintf(kn.format, array, constant), loops: 1, oracle: kernelOracle[k]}
			},
		},
		{
			// Large programs: profiling and graph building dominate.
			name: "npb-uncached",
			gen: func(seed int64, i int) request {
				k := balanced(seed, i, len(apps))
				app := apps[k]
				return request{name: fmt.Sprintf("%s-r%d", app.Name, i), source: renameArray(app.Source, i), loops: app.TargetLoops, oracle: appOracle[k]}
			},
		},
	}, nil
}

// balanced picks request i's base program among n (at most 20) in a
// seeded order that uses every base once per block of n requests, so the
// mix is the same for every seed and only the order differs.
func balanced(seed int64, i, n int) int {
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	r := uint64(mix(seed, -1-i/n))
	for j := n - 1; j > 0; j-- {
		k := int(r % uint64(j+1))
		r /= uint64(j + 1)
		perm[j], perm[k] = perm[k], perm[j]
	}
	return perm[i%n]
}

// mix is splitmix64 over (seed, i): well-spread random bits per request.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

var firstArray = regexp.MustCompile(`(?m)^(?:float|int) ([A-Za-z_]\w*)\[`)

// renameArray renames the program's first global array to a name that
// carries i, so no two requests of a stream share a source.
func renameArray(src string, i int) string {
	m := firstArray.FindStringSubmatch(src)
	if m == nil {
		return src
	}
	old, repl := m[1], m[1]+"_r"+strconv.Itoa(i)
	var b strings.Builder
	b.Grow(len(src) + len(repl)*strings.Count(src, old))
	done := 0
	for at := 0; ; {
		j := strings.Index(src[at:], old)
		if j < 0 {
			break
		}
		j += at
		at = j + len(old)
		// Whole identifiers only: v1 must not match inside v10.
		if (j == 0 || !identChar(src[j-1])) && (at == len(src) || !identChar(src[at])) {
			b.WriteString(src[done:j])
			b.WriteString(repl)
			done = at
		}
	}
	b.WriteString(src[done:])
	return b.String()
}

func identChar(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// oracleVerdicts profiles a program and returns its oracle verdict per
// loop ID.
func oracleVerdicts(name, src string) (map[int]bool, error) {
	ast, err := minic.Parse(name, src)
	if err != nil {
		return nil, err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return nil, err
	}
	res, _, err := deps.Analyze(prog, "main", interp.Limits{})
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", name, err)
	}
	out := make(map[int]bool, len(prog.LoopIDs()))
	for _, id := range prog.LoopIDs() {
		out[id] = res.Verdicts[id].Parallelizable
	}
	return out, nil
}
