// Package dataset assembles the labeled loop dataset end to end: every
// benchmark program is lowered, profiled once for its dependence result
// and oracle labels, expanded into IR optimization-level variants (the
// paper's six clang -O builds), and each loop's sub-PEG is encoded twice —
// node-feature view (inst2vec + Table-I dynamics) and structural view
// (anonymous-walk distributions). Build computes only what the models
// need; AddBaselineInputs adds the inputs of the comparison baselines
// (the emulated tools' decisions and the NCC token streams) for the
// callers that evaluate them. The package also provides class balancing
// and the paper's 75:25 split with no common objects across the two
// sides.
package dataset

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mvpar/internal/bench"
	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/faults"
	"mvpar/internal/features"
	"mvpar/internal/gnn"
	"mvpar/internal/graph"
	"mvpar/internal/inst2vec"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
	"mvpar/internal/peg"
	"mvpar/internal/pool"
	"mvpar/internal/tensor"
	"mvpar/internal/tools"
	"mvpar/internal/walks"
)

// Record is one labeled loop instance (one loop of one IR variant of one
// program): the encoded two-view GNN sample and the hand-crafted static
// vector, plus, once AddBaselineInputs has run, the token sequence for
// the NCC baseline and the emulated tools' decisions.
type Record struct {
	Meta  gnn.SampleMeta
	Label int // 1 = parallelizable
	// Pattern is the finer-grained class of the paper's first future-work
	// item: 0 = sequential, 1 = DoALL, 2 = reduction. Derived from the
	// oracle without annotation noise.
	Pattern int
	Verdict deps.Verdict

	Sample gnn.Sample
	Static features.Static
	// Tokens is the canonicalized region instruction stream (NCC input).
	// Build leaves it nil; AddBaselineInputs fills it.
	Tokens []string
	// Tools holds the per-loop decisions of the emulated
	// auto-parallelization tools (Pluto, AutoPar, DiscoPoP), as 0/1.
	// Build leaves it nil; AddBaselineInputs fills it.
	Tools map[string]int
}

// Config controls dataset construction.
type Config struct {
	Variants   int // IR variants per program, 1..ir.NumVariants
	WalkParams walks.Params
	WalkLen    int // anonymous-walk space max length
	EmbedCfg   inst2vec.Config
	Seed       int64
	MaxSteps   int64
	MaxTokens  int // NCC sequence cap (AddBaselineInputs)
	// Embedding, when non-nil, is reused instead of training a fresh
	// inst2vec space — required when encoding new programs for a model
	// trained elsewhere (tokens are canonical, so spaces transfer).
	Embedding *inst2vec.Embedding
	// Space, when non-nil, is reused instead of re-enumerating the
	// anonymous-walk space (it overrides WalkLen). Long-lived callers —
	// core.Classifier, the inference server — set both Embedding and
	// Space so repeat builds rebuild no encoder state at all; the
	// mvpar_inst2vec_vocab_builds_total and mvpar_walks_space_builds_total
	// counters track how often either is reconstructed.
	Space *walks.Space
	// LabelNoise flips each loop's label with this probability,
	// deterministically per (program, loop) so all IR variants stay
	// consistent. It models the imperfect expert OpenMP annotations the
	// paper trains on (its own error analysis attributes several
	// misclassifications to missing annotations); our dynamic oracle is
	// exact, so the annotation-noise channel is reintroduced explicitly.
	// The six hand-written BOTS loops are hand-verified and exempt.
	LabelNoise float64
	// Parallelism is the worker count for the per-program profile stage
	// and the per-(program, variant) encode stage. 0 uses
	// pool.DefaultParallelism() (NumCPU or the --jobs override); 1 runs
	// the stages inline on one goroutine. Records, the report and walk
	// sampling are bit-identical at every worker count, and so is a
	// failing build's error unless the build was cancelled: jobs are
	// merged in input order, a failing build returns its lowest-index
	// failure, and every record's walk RNG is seeded per (program, loop,
	// variant) via sampleSeed.
	Parallelism int
	// Strict has no effect.
	//
	// Deprecated: every build is strict: the first program whose
	// parse/lower/profile/encode stage fails fails the build.
	Strict bool
	// Ctx cancels the build: profiling aborts at the interpreter's stride
	// check, encoding before the next loop, and no further program
	// starts.
	Ctx context.Context
}

// DefaultConfig builds all six variants with the standard walk space.
// MaxSteps is left at zero so profiling inherits interp.DefaultMaxSteps —
// the single pipeline-wide execution budget (see interp.Limits).
var DefaultConfig = Config{
	Variants:   ir.NumVariants,
	WalkParams: walks.DefaultParams,
	WalkLen:    5,
	EmbedCfg:   inst2vec.DefaultConfig,
	Seed:       1,
	MaxTokens:  128,
}

// Dataset is the assembled corpus.
type Dataset struct {
	Records   []*Record
	Embedding *inst2vec.Embedding
	Space     *walks.Space
	NodeDim   int
	StructDim int
}

// Node feature layout: [kind one-hot (3) | inst2vec (D) | node extras (4) |
// loop dynamics (7, root loop node only)].
const nodeExtraDims = 4

// NodeDimFor returns the node-view feature dimension for an embedding
// dimension.
func NodeDimFor(embedDim int) int { return 3 + embedDim + nodeExtraDims + features.NumDynamic }

// BuildReport is the outcome of one successful Build: how many programs
// it built.
type BuildReport struct {
	Programs int // applications built
}

// EncodeFaultHook, when non-nil, is invoked at the start of every
// program's encode stage. It is a fault-injection point for robustness
// tests (a hook that panics simulates an encoder bug); production code
// must leave it nil.
var EncodeFaultHook func(program string)

// Build constructs the dataset from the given applications. Each
// program's parse/lower/profile/encode runs inside a faults.Stage
// boundary, and the first failing program fails the build with a
// *faults.StageError naming the program and the stage, errors and panics
// alike (see docs/robustness.md).
func Build(apps []bench.App, cfg Config) (*Dataset, *BuildReport, error) {
	if cfg.Variants <= 0 || cfg.Variants > ir.NumVariants {
		cfg.Variants = 1
	}
	if cfg.WalkLen <= 0 {
		cfg.WalkLen = 5
	}
	// cfg.MaxSteps = 0 flows into interp.Limits, which owns the default.

	ctx, span := trace.StartSpan(cfg.Ctx, "dataset.build")
	defer span.End()
	cfg.Ctx = ctx
	report := &BuildReport{Programs: len(apps)}
	type profiled struct {
		app  bench.App
		base *ir.Program
		res  *deps.Result
	}
	// Profile stage: each program's parse/lower/profile is an independent
	// job. The pool resolves failures to the lowest-index one, exactly
	// the error the serial loop would have hit first.
	pctx, profileSpan := trace.StartSpan(cfg.Ctx, "dataset.profile")
	pcfg := pool.Config{Workers: cfg.Parallelism, Ctx: cfg.Ctx}
	progs, perr := pool.Map(pcfg, len(apps), func(i int) (profiled, error) {
		app := apps[i]
		var (
			src  *minic.Program
			base *ir.Program
			res  *deps.Result
		)
		err := faults.Stage(app.Name, faults.StageParse, func() (e error) {
			src, e = minic.Parse(app.Name, app.Source)
			return e
		})
		if err == nil {
			err = faults.Stage(app.Name, faults.StageLower, func() (e error) {
				base, e = ir.Lower(src)
				return e
			})
		}
		if err == nil {
			err = faults.Stage(app.Name, faults.StageProfile, func() (e error) {
				res, _, e = deps.Analyze(base, "main", interp.Limits{MaxSteps: cfg.MaxSteps, Ctx: pctx})
				return e
			})
		}
		return profiled{app: app, base: base, res: res}, err
	})
	profileSpan.End()
	if perr != nil {
		return nil, nil, fmt.Errorf("dataset: %w", perr)
	}
	irProgs := make([]*ir.Program, len(progs))
	for i, p := range progs {
		irProgs[i] = p.base
	}

	emb := cfg.Embedding
	if emb == nil {
		_, embedSpan := trace.StartSpan(cfg.Ctx, "dataset.embed")
		obs.GetCounter("mvpar_inst2vec_vocab_builds_total").Inc()
		emb = inst2vec.Train(irProgs, cfg.EmbedCfg)
		embedSpan.End()
	}
	space := cfg.Space
	if space == nil {
		obs.GetCounter("mvpar_walks_space_builds_total").Inc()
		space = walks.NewSpace(cfg.WalkLen)
	}
	d := &Dataset{
		Embedding: emb,
		Space:     space,
		NodeDim:   NodeDimFor(emb.Dim),
		StructDim: StructDimFor(space),
	}

	// Encode stage: one job per (program, variant) pair — the finer grain
	// matters because single-program builds (the encode benchmarks)
	// still fan out across their variants. Records are
	// appended at the merge in (program, variant) order, so Dataset.Records
	// is byte-identical to the serial build.
	nv := cfg.Variants
	_, encodeSpan := trace.StartSpan(cfg.Ctx, "dataset.encode")
	eouts, eerr := pool.Map(pool.Config{Workers: cfg.Parallelism, Ctx: cfg.Ctx}, len(progs)*nv, func(j int) ([]*Record, error) {
		p := progs[j/nv]
		v := j % nv
		var recs []*Record
		err := faults.Stage(p.app.Name, faults.StageEncode, func() (e error) {
			// The fault hook fires once per program (on its first variant).
			if v == 0 && EncodeFaultHook != nil {
				EncodeFaultHook(p.app.Name)
			}
			recs, e = encodeVariant(p.app, p.base, p.res, emb, space, cfg, v)
			return e
		})
		return recs, err
	})
	encodeSpan.End()
	if eerr != nil {
		return nil, nil, fmt.Errorf("dataset: %w", eerr)
	}
	for _, recs := range eouts {
		d.Records = append(d.Records, recs...)
	}
	_, stdSpan := trace.StartSpan(cfg.Ctx, "dataset.standardize")
	standardizeNodeFeatures(d.Records)
	stdSpan.End()
	recordBuildStats(len(apps), d.Records)
	return d, report, nil
}

// encodeVariant encodes every loop of one IR variant of one profiled
// program. It is a pure function of its inputs (walk sampling is seeded
// per record), which is what lets Build fan variants out across workers
// and still merge a bit-identical dataset. It runs inside the caller's
// recovery boundary: a panic anywhere in the graph/tensor/nn encoding
// machinery fails the build as this program's encode stage, and so does
// a cfg.Ctx that is done before a loop starts.
func encodeVariant(app bench.App, base *ir.Program, res *deps.Result,
	emb *inst2vec.Embedding, space *walks.Space,
	cfg Config, v int) ([]*Record, error) {
	var recs []*Record
	variant := encodedVariant(base, v)
	cus := cu.Build(variant)
	pg := peg.Build(variant, cus, res)
	// One generator for the whole job, reseeded per loop: the same stream
	// as a fresh rand.New(rand.NewSource(seed)) without its allocation,
	// and with walks.NewRand's cheaper seeding.
	rng := walks.NewRand()
	var merge mergeScratch
	for _, loopID := range cus.LoopIDs() {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, cfg.Ctx.Err()
		}
		verdict := res.Verdicts[loopID]
		label := 0
		if verdict.Parallelizable {
			label = 1
		}
		pattern := PatternSequential
		if verdict.Parallelizable {
			pattern = PatternDoAll
			if verdict.HasReduction {
				pattern = PatternReduction
			}
		}
		if cfg.LabelNoise > 0 && app.Suite != "BOTS" &&
			flipLabel(app.Name, loopID, cfg.Seed, cfg.LabelNoise) {
			label = 1 - label
		}
		loop := variant.Loops[loopID]
		meta := gnn.SampleMeta{
			Program: app.Name,
			Suite:   app.Suite,
			App:     app.Name,
			LoopID:  loopID,
			Variant: v,
			Func:    loop.Func,
			Line:    loop.Line,
		}
		sub := pg.Extract(loopID)
		stat := features.ExtractStatic(variant, cus, res, loopID)
		rec := &Record{
			Meta:    meta,
			Label:   label,
			Pattern: pattern,
			Verdict: verdict,
			Static:  stat,
		}
		// Both views share one encoded topology: the merged graph's CSR
		// adjacency is built once and the structural view only swaps in
		// its own feature matrix.
		g := modelGraph(sub, &merge)
		node := gnn.Encode(g, nodeFeatures(sub, emb, stat))
		rng.Seed(sampleSeed(cfg.Seed, meta))
		rec.Sample = gnn.Sample{
			Node:   node,
			Struct: node.WithFeatures(structFeatures(sub, g, space, cfg.WalkParams, rng)),
			Label:  label,
			Meta:   meta,
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// recordBuildStats publishes one Build's record count and class balance.
func recordBuildStats(programs int, recs []*Record) {
	pos := 0
	for _, r := range recs {
		if r.Label == 1 {
			pos++
		}
	}
	ratio := 0.0
	if len(recs) > 0 {
		ratio = float64(pos) / float64(len(recs))
	}
	obs.GetCounter("mvpar_dataset_builds_total").Inc()
	obs.GetCounter("mvpar_dataset_programs_total").Add(int64(programs))
	obs.GetCounter("mvpar_dataset_records_total").Add(int64(len(recs)))
	obs.GetGauge("mvpar_dataset_balance_ratio").Set(ratio)
	obs.Info("dataset.build", "programs", programs, "records", len(recs),
		"positive", pos, "balance_ratio", ratio)
}

// standardizeNodeFeatures normalizes every node-view feature dimension to
// zero mean and unit variance across the whole dataset. Without this the
// log-scaled counters (up to ~8) saturate the first tanh graph
// convolution and the DGCNN cannot optimize.
func standardizeNodeFeatures(recs []*Record) {
	if len(recs) == 0 {
		return
	}
	dim := recs[0].Sample.Node.X.Cols
	mean := make([]float64, dim)
	m2 := make([]float64, dim)
	n := 0.0
	for _, r := range recs {
		x := r.Sample.Node.X
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			n++
			for j, v := range row {
				d := v - mean[j]
				mean[j] += d / n
				m2[j] += d * (v - mean[j])
			}
		}
	}
	std := make([]float64, dim)
	for j := range std {
		std[j] = math.Sqrt(m2[j] / math.Max(1, n-1))
		if std[j] < 1e-9 {
			std[j] = 1
		}
	}
	for _, r := range recs {
		x := r.Sample.Node.X
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] = (row[j] - mean[j]) / std[j]
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// flipLabel decides deterministically whether annotation noise flips the
// label of (program, loop): a stable hash mapped to [0,1) against p.
func flipLabel(program string, loopID int, seed int64, p float64) bool {
	h := uint64(1469598103934665603)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, c := range []byte(program) {
		mix(c)
	}
	mix(byte(loopID))
	mix(byte(loopID >> 8))
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	return float64(h%10000)/10000 < p
}

// sampleSeed derives a stable per-sample RNG seed.
func sampleSeed(base int64, m gnn.SampleMeta) int64 {
	h := int64(1469598103934665603)
	for _, c := range m.Program {
		h = (h ^ int64(c)) * 1099511628211
	}
	h ^= int64(m.LoopID) * 2654435761
	h ^= int64(m.Variant) * 40503
	return base ^ h
}

// nodeFeatures builds the node-feature matrix for a sub-PEG: kind
// one-hot, inst2vec statement embedding, per-node counters, and the
// Table-I dynamics of the classified loop broadcast to every node (the
// paper integrates the dynamic features with the static/semantic node
// features; broadcasting keeps them visible regardless of which nodes
// survive SortPooling).
func nodeFeatures(sub *peg.SubPEG, emb *inst2vec.Embedding, stat features.Static) *tensor.Matrix {
	dim := NodeDimFor(emb.Dim)
	x := tensor.New(len(sub.Nodes), dim)
	dyn := features.Normalize(stat.Dynamic.Vector())
	for i, n := range sub.Nodes {
		row := x.Row(i)
		copy(row[3+emb.Dim+nodeExtraDims:], dyn)
		switch n.Kind {
		case peg.NodeCU:
			row[0] = 1
			copy(row[3:3+emb.Dim], emb.CUVector(n.CU))
			ex := row[3+emb.Dim:]
			ex[0] = logScale(float64(n.CU.NumInstrs()))
			if n.CU.Reduction != ir.RedNone {
				ex[1] = 1
			}
			if n.CU.HasCall {
				ex[2] = 1
			}
			ex[3] = logScale(float64(len(n.CU.Reads) + len(n.CU.Writes)))
		case peg.NodeLoop:
			row[1] = 1
			row[3+emb.Dim] = 1 // loop marker; nesting info flows via edges
		default:
			row[2] = 1
		}
	}
	return x
}

// structDescDims is the number of per-node structural descriptor
// dimensions appended to the anonymous-walk distribution: self-edge flags
// per dependence kind, log degrees, per-kind edge counts and the node
// kind. Anonymous walks cannot see self-loops (anonymization compresses
// stationary steps), yet a dependence self-edge — a statement depending
// on itself across iterations — is precisely the recurrence/reduction
// signature figure 1 builds on; the descriptors restore it.
const structDescDims = 12

// StructDimFor returns the structural-view feature dimension for a walk
// space.
func StructDimFor(space *walks.Space) int { return space.NumTypes() + structDescDims }

// structFeatures builds the structural-view features of a sub-PEG whose
// kind-merged graph is g: the anonymous-walk type distribution (eq. 3)
// concatenated with local structural descriptors.
func structFeatures(sub *peg.SubPEG, g *graph.Directed, space *walks.Space, p walks.Params, rng *rand.Rand) *tensor.Matrix {
	dist := space.NodeDistributions(g, p, rng)
	x := tensor.New(g.NumNodes(), StructDimFor(space))
	for v := 0; v < g.NumNodes(); v++ {
		row := x.Row(v)
		copy(row, dist.Row(v))
		desc := row[space.NumTypes():]
		var kindIn [4]float64
		for _, e := range g.Out(v) {
			switch e.Kind {
			case peg.EdgeRAW:
				kindIn[0]++
				if e.To == v {
					desc[0] = 1
				}
			case peg.EdgeWAR:
				kindIn[1]++
				if e.To == v {
					desc[1] = 1
				}
			case peg.EdgeWAW:
				kindIn[2]++
				if e.To == v {
					desc[2] = 1
				}
			default:
				kindIn[3]++
			}
		}
		desc[3] = logScale(float64(g.OutDegree(v)))
		desc[4] = logScale(float64(g.InDegree(v)))
		desc[5] = logScale(kindIn[0])
		desc[6] = logScale(kindIn[1])
		desc[7] = logScale(kindIn[2])
		desc[8] = logScale(kindIn[3])
		switch sub.Nodes[v].Kind {
		case peg.NodeCU:
			desc[9] = 1
		case peg.NodeLoop:
			desc[10] = 1
			if v == sub.Root {
				desc[11] = 1
			}
		}
	}
	return x
}

// modelGraph returns the graph the models see: the sub-PEG with carried
// dependence kinds merged into their base kinds. The carried/independent
// distinction is the oracle's analysis artifact; the paper's PEG edges are
// plain RAW/WAR/WAW, so exposing the flag would leak the label. Each
// node keeps the first of its out-edges per (target, merged kind), in
// the sub-PEG's order. m is scratch reused across one job's loops.
func modelGraph(sub *peg.SubPEG, m *mergeScratch) *graph.Directed {
	n := sub.G.NumNodes()
	if cap(m.kinds) < n {
		m.kinds = make([]uint8, n)
	}
	kinds := m.kinds[:n] // all zero between calls
	m.edges = m.edges[:0]
	for v := 0; v < n; v++ {
		out := sub.G.Out(v)
		for _, e := range out {
			kind := e.Kind
			switch kind {
			case peg.EdgeRAWCarried:
				kind = peg.EdgeRAW
			case peg.EdgeWARCarried:
				kind = peg.EdgeWAR
			case peg.EdgeWAWCarried:
				kind = peg.EdgeWAW
			}
			if bit := uint8(1) << kind; kinds[e.To]&bit == 0 {
				kinds[e.To] |= bit
				m.edges = append(m.edges, graph.Edge{From: v, To: e.To, Kind: kind})
			}
		}
		for _, e := range out {
			kinds[e.To] = 0
		}
	}
	return graph.FromEdges(n, m.edges)
}

// mergeScratch is modelGraph's scratch: the merged edge list and, per
// target node, the merged kinds already taken from the current source.
type mergeScratch struct {
	edges []graph.Edge
	kinds []uint8
}

// logScale is ln(1+v), keeping counter features inside activation ranges.
func logScale(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log1p(v)
}

// encodedVariant returns IR variant v of base for the encode stage. Level
// 0 is the unmodified lowering, and encoding only reads the program
// (TestEncodeLeavesProgramUnchanged), so it shares base instead of
// cloning it; the other levels transform a copy.
func encodedVariant(base *ir.Program, v int) *ir.Program {
	if v == 0 {
		return base
	}
	return ir.Variant(base, v)
}

// AddBaselineInputs fills Tools and Tokens on every record, the inputs of
// the comparison baselines that classification never reads: the emulated
// tools' decisions (Pluto and AutoPar from the static affine tests,
// DiscoPoP from the record's verdict) and the NCC token stream, capped at
// cfg.MaxTokens. apps must hold the source of every record's program.
// Each program is parsed and lowered again, one job per program on
// cfg.Parallelism workers; the result is the same at every worker count.
func AddBaselineInputs(apps []bench.App, recs []*Record, cfg Config) error {
	maxTokens := cfg.MaxTokens
	if maxTokens <= 0 {
		maxTokens = DefaultConfig.MaxTokens
	}
	byProgram := map[string][]*Record{}
	var names []string
	for _, r := range recs {
		if byProgram[r.Meta.Program] == nil {
			names = append(names, r.Meta.Program)
		}
		byProgram[r.Meta.Program] = append(byProgram[r.Meta.Program], r)
	}
	source := map[string]bench.App{}
	for _, app := range apps {
		source[app.Name] = app
	}
	_, err := pool.Map(pool.Config{Workers: cfg.Parallelism, Ctx: cfg.Ctx}, len(names), func(i int) (struct{}, error) {
		app, ok := source[names[i]]
		if !ok {
			return struct{}{}, fmt.Errorf("dataset: no source for program %q", names[i])
		}
		src, err := minic.Parse(app.Name, app.Source)
		if err != nil {
			return struct{}{}, err
		}
		base, err := ir.Lower(src)
		if err != nil {
			return struct{}{}, err
		}
		static := tools.AnalyzeStatic(src)
		cus := map[int]*cu.Set{}
		for _, r := range byProgram[app.Name] {
			v := r.Meta.Variant
			if cus[v] == nil {
				cus[v] = cu.Build(encodedVariant(base, v))
			}
			loop := r.Meta.LoopID
			r.Tokens = regionTokens(cus[v], loop, maxTokens)
			r.Tools = map[string]int{
				tools.NamePluto:    b2i(static.Pluto[loop]),
				tools.NameAutoPar:  b2i(static.AutoPar[loop]),
				tools.NameDiscoPoP: b2i(tools.DiscoPoPRule(r.Verdict)),
			}
		}
		return struct{}{}, nil
	})
	return err
}

// regionTokens produces the NCC input: the canonicalized instruction
// stream of the loop region in static order, capped at maxTokens.
func regionTokens(cus *cu.Set, loopID int, maxTokens int) []string {
	stmts := cus.LoopRegionStmts(loopID)
	var toks []string
	for _, s := range stmts {
		c := cus.ByStmt[s]
		if c == nil {
			continue
		}
		for _, in := range c.Instrs {
			toks = append(toks, inst2vec.Canonicalize(in))
			if len(toks) >= maxTokens {
				return toks
			}
		}
	}
	return toks
}

// Balance returns up to perClass records of each class, drawn
// deterministically; pass perClass <= 0 to balance to the minority class
// size (the paper balances to 3100 + 3100).
func Balance(records []*Record, perClass int, seed int64) []*Record {
	var pos, neg []*Record
	for _, r := range records {
		if r.Label == 1 {
			pos = append(pos, r)
		} else {
			neg = append(neg, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	n := perClass
	if n <= 0 || n > len(pos) {
		n = len(pos)
	}
	if n > len(neg) {
		n = len(neg)
	}
	out := append(append([]*Record{}, pos[:n]...), neg[:n]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Split partitions records into train and test with no common objects:
// all variants of the same (program, loop) land on the same side.
func Split(recs []*Record, trainFrac float64, seed int64) (train, test []*Record) {
	type key struct {
		program string
		loop    int
	}
	groups := map[key][]*Record{}
	var order []key
	for _, r := range recs {
		k := key{r.Meta.Program, r.Meta.LoopID}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].program != order[j].program {
			return order[i].program < order[j].program
		}
		return order[i].loop < order[j].loop
	})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	cut := int(float64(len(order)) * trainFrac)
	for i, k := range order {
		if i < cut {
			train = append(train, groups[k]...)
		} else {
			test = append(test, groups[k]...)
		}
	}
	return train, test
}

// Parallel pattern classes (future-work extension).
const (
	PatternSequential = 0
	PatternDoAll      = 1
	PatternReduction  = 2
)

// NumPatterns is the number of pattern classes.
const NumPatterns = 3

// PatternNames names the pattern classes in label order.
var PatternNames = []string{"sequential", "DoALL", "reduction"}

// PatternSamples extracts samples labeled with the three-way parallel
// pattern instead of the binary parallelizability label.
func PatternSamples(recs []*Record) []gnn.Sample {
	out := make([]gnn.Sample, len(recs))
	for i, r := range recs {
		out[i] = r.Sample
		out[i].Label = r.Pattern
	}
	return out
}

// BalanceByPattern draws up to perClass records of each pattern class
// (perClass <= 0 balances to the smallest class).
func BalanceByPattern(records []*Record, perClass int, seed int64) []*Record {
	groups := make([][]*Record, NumPatterns)
	for _, r := range records {
		groups[r.Pattern] = append(groups[r.Pattern], r)
	}
	rng := rand.New(rand.NewSource(seed))
	n := perClass
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		if n <= 0 || n > len(g) {
			if perClass <= 0 {
				if n <= 0 || len(g) < n {
					n = len(g)
				}
			}
		}
	}
	if n <= 0 {
		return nil
	}
	var out []*Record
	for _, g := range groups {
		k := n
		if k > len(g) {
			k = len(g)
		}
		out = append(out, g[:k]...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// StaticNodeSamples extracts samples whose node view has the dynamic
// features zeroed — the "GNNs with Static Information" baseline (Shen et
// al.) sees the inst2vec/static node content and the graph, but none of
// the profiled Table-I dynamics.
func StaticNodeSamples(recs []*Record) []gnn.Sample {
	out := make([]gnn.Sample, len(recs))
	for i, r := range recs {
		src := r.Sample.Node
		x := src.X.Clone()
		for row := 0; row < x.Rows; row++ {
			vals := x.Row(row)
			for j := x.Cols - features.NumDynamic; j < x.Cols; j++ {
				vals[j] = 0
			}
		}
		out[i] = gnn.Sample{
			Node:   src.WithFeatures(x),
			Struct: r.Sample.Struct,
			Label:  r.Label,
			Meta:   r.Meta,
		}
	}
	return out
}

// Samples extracts the GNN samples from records.
func Samples(recs []*Record) []gnn.Sample {
	out := make([]gnn.Sample, len(recs))
	for i, r := range recs {
		out[i] = r.Sample
	}
	return out
}

// BySuite groups records by benchmark suite name.
func BySuite(recs []*Record) map[string][]*Record {
	out := map[string][]*Record{}
	for _, r := range recs {
		out[r.Meta.Suite] = append(out[r.Meta.Suite], r)
	}
	return out
}

// KFold partitions records into k folds at loop-object granularity (all
// variants of one loop share a fold) and returns, for each fold, the
// (train, test) pair with that fold held out. Use for cross-validated
// robustness estimates.
func KFold(recs []*Record, k int, seed int64) [][2][]*Record {
	if k < 2 {
		k = 2
	}
	type key struct {
		program string
		loop    int
	}
	groups := map[key][]*Record{}
	var order []key
	for _, r := range recs {
		kk := key{r.Meta.Program, r.Meta.LoopID}
		if _, ok := groups[kk]; !ok {
			order = append(order, kk)
		}
		groups[kk] = append(groups[kk], r)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].program != order[j].program {
			return order[i].program < order[j].program
		}
		return order[i].loop < order[j].loop
	})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	folds := make([][]*Record, k)
	for i, kk := range order {
		f := i % k
		folds[f] = append(folds[f], groups[kk]...)
	}
	out := make([][2][]*Record, k)
	for f := 0; f < k; f++ {
		var train []*Record
		for g := 0; g < k; g++ {
			if g != f {
				train = append(train, folds[g]...)
			}
		}
		out[f] = [2][]*Record{train, folds[f]}
	}
	return out
}
