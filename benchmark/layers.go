package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/cu"
	"mvpar/internal/dataset"
	"mvpar/internal/deps"
	"mvpar/internal/features"
	"mvpar/internal/gnn"
	"mvpar/internal/graph"
	"mvpar/internal/inst2vec"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/peg"
	"mvpar/internal/tensor"
	"mvpar/internal/tools"
	"mvpar/internal/walks"
)

// quickOptions mirror the -quick configuration of `mvpar train` and
// `mvpar serve`. Should they drift apart, the in-process fingerprint no
// longer matches /healthz and the gate fails.
func quickOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Data = dataset.Config{
		Variants:   2,
		WalkParams: walks.Params{Length: 4, Gamma: 12},
		WalkLen:    4,
		EmbedCfg:   inst2vec.DefaultConfig,
		Seed:       1,
		LabelNoise: 0.05,
	}
	opts.Train = gnn.TrainConfig{Epochs: 10, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: 1}
	return opts
}

// loadPipeline loads the checkpoint the server serves into an in-process
// pipeline, as `mvpar serve -quick -model` does.
func loadPipeline(ctx context.Context, ckpt string) (*core.Pipeline, error) {
	pl := core.NewPipeline(quickOptions())
	if err := pl.PrepareContext(ctx, bench.Corpus()); err != nil {
		return nil, err
	}
	f, err := os.Open(ckpt)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pl.LoadModel(f); err != nil {
		return nil, fmt.Errorf("loading %s: %w", ckpt, err)
	}
	return pl, nil
}

// stageMetrics are the in-process pass's per-program stage times, in the
// order dataset.Build makes the calls. Their shares of the stage sum are
// printed with the per-layer metrics.
var stageMetrics = []string{
	"minic.parse_us", "ir.lower_us", "deps.analyze_us", "tools.static_us",
	"ir.variant_us", "cu.build_us", "peg.build_us", "peg.extract_us",
	"features.static_us", "walks.sample_us", "gnn.encode_us",
}

// inProcessLayers times, on one goroutine and for every program of reqs,
// each layer's public call in the order dataset.Build makes them, then
// dataset.Build and Classifier.ClassifyContext whole. It returns p50s per
// program (per loop for the forwards) and each stage's share of the sum
// of stage times.
func inProcessLayers(ctx context.Context, pl *core.Pipeline, cls *core.Classifier, reqs []request) (map[string]float64, map[string]float64, error) {
	// The single-program build configuration core.Classifier uses.
	cfg := pl.Opts.Data
	cfg.Variants = 1
	cfg.Embedding = pl.Dataset.Embedding
	cfg.Space = pl.Dataset.Space
	cfg.Strict = true
	model := pl.Model.Replicate()
	model.PrepareF32()
	model.PrepareI8()
	forwards := []struct {
		name    string
		predict func(gnn.Sample) (int, float64)
	}{
		{"gnn.forward_f64_us", model.PredictWithProba},
		{"gnn.forward_f32_us", model.PredictWithProbaF32},
		{"gnn.forward_i8_us", model.PredictWithProbaI8},
	}

	perProgram := map[string][]float64{}
	perLoop := map[string][]float64{}
	totals := map[string]float64{}
	loops := 0
	for _, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sums := map[string]float64{}
		timed := func(name string, f func()) {
			start := time.Now()
			f()
			sums[name] += float64(time.Since(start)) / float64(time.Microsecond)
		}
		var (
			err   error
			ast   *minic.Program
			prog  *ir.Program
			res   *deps.Result
			stats interp.Stats
		)
		timed("minic.parse_us", func() { ast, err = minic.Parse(req.name, req.source) })
		if err == nil {
			timed("ir.lower_us", func() { prog, err = ir.Lower(ast) })
		}
		if err == nil {
			timed("deps.analyze_us", func() { res, stats, err = deps.Analyze(prog, "main", interp.Limits{MaxSteps: cfg.MaxSteps}) })
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", req.name, err)
		}
		timed("tools.static_us", func() { tools.AnalyzeStatic(ast) })
		var variant *ir.Program
		timed("ir.variant_us", func() { variant = ir.Variant(prog, 0) })
		var cus *cu.Set
		timed("cu.build_us", func() { cus = cu.Build(variant) })
		var pg *peg.PEG
		timed("peg.build_us", func() { pg = peg.Build(variant, cus, res) })
		nodes := 0
		for _, id := range variant.LoopIDs() {
			var sub *peg.SubPEG
			timed("peg.extract_us", func() { sub = pg.Extract(id) })
			nodes += sub.G.NumNodes()
			timed("features.static_us", func() { features.ExtractStatic(variant, cus, res, id) })
			g := mergedGraph(sub)
			rng := rand.New(rand.NewSource(int64(id)))
			var dist *tensor.Matrix
			timed("walks.sample_us", func() { dist, err = cfg.Space.NodeDistributionsBudget(g, cfg.WalkParams, rng) })
			if err != nil {
				return nil, nil, fmt.Errorf("%s: loop %d: %w", req.name, id, err)
			}
			// One encode per view, as dataset.Build does.
			timed("gnn.encode_us", func() {
				gnn.Encode(g, dist)
				gnn.Encode(g, dist)
			})
		}
		for _, name := range stageMetrics {
			totals[name] += sums[name]
		}

		var d *dataset.Dataset
		app := bench.App{Name: req.name, Suite: "user", Source: req.source}
		sums["dataset.build_allocs"] = allocs(func() {
			timed("dataset.build_us", func() { d, _, err = dataset.Build([]bench.App{app}, cfg) })
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", req.name, err)
		}
		for _, rec := range d.Records {
			for _, f := range forwards {
				start := time.Now()
				f.predict(rec.Sample)
				perLoop[f.name] = append(perLoop[f.name], float64(time.Since(start))/float64(time.Microsecond))
			}
		}
		sums["core.classify_allocs"] = allocs(func() {
			timed("core.classify_us", func() { _, err = cls.ClassifyContext(ctx, req.name, req.source) })
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", req.name, err)
		}
		sums["interp.steps"] = float64(stats.Steps)
		sums["peg.subpeg_nodes"] = float64(nodes)
		loops += len(variant.LoopIDs())
		for name, v := range sums {
			perProgram[name] = append(perProgram[name], v)
		}
	}

	out := map[string]float64{"loops_per_request": float64(loops) / float64(len(reqs))}
	for name, vs := range perProgram {
		out[name] = median(vs)
	}
	for name, vs := range perLoop {
		out[name] = median(vs)
	}
	sum := 0.0
	for _, v := range totals {
		sum += v
	}
	shares := map[string]float64{}
	for name, v := range totals {
		shares[name] = v / sum
	}
	return out, shares, nil
}

// allocs is the number of heap allocations f makes.
func allocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// mergedGraph is the graph dataset samples walks on: the sub-PEG with
// carried dependence kinds merged into their base kinds.
func mergedGraph(sub *peg.SubPEG) *graph.Directed {
	g := graph.New(sub.G.NumNodes())
	for _, e := range sub.G.Edges() {
		kind := e.Kind
		switch kind {
		case peg.EdgeRAWCarried:
			kind = peg.EdgeRAW
		case peg.EdgeWARCarried:
			kind = peg.EdgeWAR
		case peg.EdgeWAWCarried:
			kind = peg.EdgeWAW
		}
		if !g.HasEdgeKind(e.From, e.To, kind) {
			g.AddEdge(e.From, e.To, kind)
		}
	}
	return g
}
