package mvpar_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. The heavy
// experiment benchmarks run a scaled-down configuration per iteration
// (the paper-scale numbers are produced by `mvpar experiments` and recorded
// in EXPERIMENTS.md); the shape — who wins and by roughly what margin —
// is the same. Accuracies are attached to the benchmark output via
// ReportMetric, and the regenerated rows via Logf.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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
	"mvpar/internal/nn"
	"mvpar/internal/peg"
	"mvpar/internal/pool"
	"mvpar/internal/sched"
	"mvpar/internal/tensor"
	"mvpar/internal/walks"
)

// miniConfig is the scaled-down experiment configuration the benchmarks
// use: a representative slice of the corpus, two IR variants, short
// training.
func miniConfig() core.ExperimentConfig {
	all := bench.Corpus()
	apps := []bench.App{all[3], all[4], all[5], all[6], all[9], all[10], all[12], all[13]}
	apps = append(apps, bench.TransformedCorpus(1)[:6]...)
	return core.ExperimentConfig{
		Variants:     2,
		PerClass:     0,
		Epochs:       8,
		LabelNoise:   0.05,
		Seed:         1,
		AppsOverride: apps,
	}
}

// setJobs sets the process-wide worker count for the rest of the
// benchmark and restores the NumCPU default when it ends.
func setJobs(b *testing.B, n int) {
	pool.SetDefaultParallelism(n)
	b.Cleanup(func() { pool.SetDefaultParallelism(0) })
}

// miniStudy builds the mini corpus study once per call.
func miniStudy(b *testing.B, cfg core.ExperimentConfig) *core.Study {
	b.Helper()
	s, err := core.NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// miniDataset builds the mini corpus dataset once per call.
func miniDataset(b *testing.B, cfg core.ExperimentConfig) *dataset.Dataset {
	b.Helper()
	d, _, err := dataset.Build(cfg.AppsOverride, core.ExportDataConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkTable2DatasetStats regenerates Table II: the per-application
// loop counts of the corpus.
func BenchmarkTable2DatasetStats(b *testing.B) {
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		rows, t := core.RunTable2()
		total = t
		if i == 0 {
			b.Logf("\n%s", core.RenderTable2(rows, t))
		}
	}
	b.ReportMetric(float64(total), "loops")
}

// BenchmarkTable3Accuracy regenerates Table III at mini scale: every
// model and tool evaluated per suite.
func BenchmarkTable3Accuracy(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	var res *core.Table3Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunTable3(miniStudy(b, cfg))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.Logf("\n%s", core.RenderTable3(res))
	for suite, acc := range res.Acc {
		b.ReportMetric(100*acc["MV-GNN"], "acc_mvgnn_"+suite)
	}
	b.ReportMetric(100*res.HeldOutAcc["MV-GNN"], "acc_mvgnn_heldout")
}

// BenchmarkTable4NPBCaseStudy regenerates Table IV: identified
// parallelizable loops per NPB application.
func BenchmarkTable4NPBCaseStudy(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	// Table IV needs the NPB apps; the mini corpus includes IS/EP/CG/MG.
	var rows []core.Table4Row
	for i := 0; i < b.N; i++ {
		r, _, err := core.RunTable4(miniStudy(b, cfg))
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.Logf("\n%s", core.RenderTable4(rows))
	total, ident := 0, 0
	for _, r := range rows {
		total += r.Loops
		ident += r.Identified
	}
	b.ReportMetric(float64(total), "npb_loops")
	b.ReportMetric(float64(ident), "identified")
}

// BenchmarkFigure7TrainingCurves regenerates Figure 7: loss and accuracy
// across training epochs on the generated dataset.
func BenchmarkFigure7TrainingCurves(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	var res *core.Figure7Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunFigure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.Logf("\n%s", core.RenderFigure7(res))
	first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
	b.ReportMetric(first.Loss-last.Loss, "loss_drop")
	b.ReportMetric(100*last.Acc, "final_train_acc")
}

// BenchmarkFigure8ViewImportance regenerates Figure 8: IMP_n and IMP_s
// per benchmark suite.
func BenchmarkFigure8ViewImportance(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	var res *core.Figure8Result
	for i := 0; i < b.N; i++ {
		r, err := core.RunFigure8(miniStudy(b, cfg))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.Logf("\n%s", core.RenderFigure8(res))
	for i, s := range res.Suites {
		b.ReportMetric(res.IMPn[i], "IMPn_"+s)
		b.ReportMetric(res.IMPs[i], "IMPs_"+s)
	}
}

// BenchmarkFigure1StructuralPatterns regenerates the figure-1
// illustration: walk-signature separation of stencil vs reduction.
func BenchmarkFigure1StructuralPatterns(b *testing.B) {
	b.ReportAllocs()
	var l1 float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		l1 = r.L1Distance
	}
	b.ReportMetric(l1, "L1_distance")
}

// BenchmarkAblationSingleView compares the fused model against each view
// alone (DESIGN.md ablation 1; the quantitative form of figure 8).
func BenchmarkAblationSingleView(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	d := miniDataset(b, cfg)
	train, test := dataset.Split(d.Records, 0.75, cfg.Seed)
	train = dataset.Balance(train, 0, cfg.Seed)
	ts, es := dataset.Samples(train), dataset.Samples(test)
	tc := gnn.TrainConfig{Epochs: cfg.Epochs, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: cfg.Seed}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := gnn.NewMVGNN(d.NodeDim, d.StructDim, cfg.Seed)
		mv.Train(ts, tc, nil)
		p := mv.Predictor()
		b.ReportMetric(100*gnn.Evaluate(p.Labeler(gnn.ViewTrained), es), "acc_multi")
		b.ReportMetric(100*gnn.Evaluate(p.Labeler(gnn.ViewNode), es), "acc_node")
		b.ReportMetric(100*gnn.Evaluate(p.Labeler(gnn.ViewStruct), es), "acc_struct")
	}
}

// BenchmarkAblationWalkParams sweeps the anonymous-walk length and sample
// count (DESIGN.md ablation 2) and reports struct-view accuracy per
// setting.
func BenchmarkAblationWalkParams(b *testing.B) {
	b.ReportAllocs()
	for _, p := range []walks.Params{{Length: 3, Gamma: 8}, {Length: 5, Gamma: 8}, {Length: 5, Gamma: 32}} {
		p := p
		b.Run(fmt.Sprintf("l%d_g%d", p.Length, p.Gamma), func(b *testing.B) {
			b.ReportAllocs()
			cfg := miniConfig()
			dcfg := core.ExportDataConfig(cfg)
			dcfg.WalkParams = p
			dcfg.WalkLen = p.Length
			d, _, err := dataset.Build(cfg.AppsOverride, dcfg)
			if err != nil {
				b.Fatal(err)
			}
			train, test := dataset.Split(d.Records, 0.75, cfg.Seed)
			train = dataset.Balance(train, 0, cfg.Seed)
			ts, es := dataset.Samples(train), dataset.Samples(test)
			tc := gnn.TrainConfig{Epochs: cfg.Epochs, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: cfg.Seed}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := gnn.NewSingleView(d.StructDim, true, cfg.Seed)
				v.Train(ts, tc, nil)
				b.ReportMetric(100*gnn.Evaluate(v.Predict, es), "acc_struct")
			}
		})
	}
}

// BenchmarkAblationSortPoolK sweeps SortPooling's k (DESIGN.md ablation 3).
func BenchmarkAblationSortPoolK(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	d := miniDataset(b, cfg)
	train, test := dataset.Split(d.Records, 0.75, cfg.Seed)
	train = dataset.Balance(train, 0, cfg.Seed)
	ts, es := dataset.Samples(train), dataset.Samples(test)
	for _, k := range []int{8, 16, 32} {
		k := k
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			gcfg := gnn.DefaultConfig(d.NodeDim)
			gcfg.SortK = k
			tc := gnn.TrainConfig{Epochs: cfg.Epochs, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: cfg.Seed}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := &gnn.SingleView{Net: gnn.NewDGCNN(gcfg, rand.New(rand.NewSource(cfg.Seed)))}
				v.Train(ts, tc, nil)
				b.ReportMetric(100*gnn.Evaluate(v.Predict, es), "acc_node")
			}
		})
	}
}

// BenchmarkAblationDynamicFeatures measures the node view with and
// without the Table-I dynamic features (DESIGN.md ablation 4 — the
// paper's future-work item on decoupling dynamic features).
func BenchmarkAblationDynamicFeatures(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	d := miniDataset(b, cfg)
	train, test := dataset.Split(d.Records, 0.75, cfg.Seed)
	train = dataset.Balance(train, 0, cfg.Seed)
	tc := gnn.TrainConfig{Epochs: cfg.Epochs, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: cfg.Seed}
	b.Run("with-dynamics", func(b *testing.B) {
		b.ReportAllocs()
		ts, es := dataset.Samples(train), dataset.Samples(test)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := gnn.NewSingleView(d.NodeDim, false, cfg.Seed)
			v.Train(ts, tc, nil)
			b.ReportMetric(100*gnn.Evaluate(v.Predict, es), "acc")
		}
	})
	b.Run("static-only", func(b *testing.B) {
		b.ReportAllocs()
		ts := dataset.StaticNodeSamples(train)
		es := dataset.StaticNodeSamples(test)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := gnn.NewSingleView(d.NodeDim, false, cfg.Seed)
			v.Train(ts, tc, nil)
			b.ReportMetric(100*gnn.Evaluate(v.Predict, es), "acc")
		}
	})
}

// BenchmarkProfileCorpus measures the profiling substrate's throughput:
// full instrumented execution + dependence analysis of the biggest
// corpus application.
func BenchmarkProfileCorpus(b *testing.B) {
	b.ReportAllocs()
	app := bench.Corpus()[1] // SP: 252 loops
	prog := ir.MustLower(minic.MustParse(app.Name, app.Source))
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		_, stats, err := deps.Analyze(prog, "main", interp.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		steps = stats.Steps
	}
	b.ReportMetric(float64(steps), "instrs/op")
}

// BenchmarkWalkSample measures the structural view's walk sampling
// (eq. 3) alone: serial NodeDistributions over the sub-PEG of every
// loop of the NPB programs, with the generator dataset.Build samples
// with (walks.NewRand) reseeded per graph, as Build reseeds it per
// loop. Sampling allocates per graph, never per step or per walk, so
// allocs/op tracks the number of graphs; the benchgate holds it to zero
// growth.
func BenchmarkWalkSample(b *testing.B) {
	b.ReportAllocs()
	var graphs []*graph.Directed
	for _, app := range bench.Corpus() {
		if app.Suite != "NPB" {
			continue
		}
		prog := ir.MustLower(minic.MustParse(app.Name, app.Source))
		res, _, err := deps.Analyze(prog, "main", interp.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range peg.Build(prog, cu.Build(prog), res).ExtractAll() {
			graphs = append(graphs, sub.G)
		}
	}
	space := walks.NewSpace(4)
	p := walks.Params{Length: 4, Gamma: 12}
	rng := walks.NewRand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for gi, g := range graphs {
			rng.Seed(int64(gi))
			space.NodeDistributions(g, p, rng)
		}
	}
	b.ReportMetric(float64(len(graphs)), "graphs/op")
}

// BenchmarkDatasetEncode measures end-to-end dataset construction
// (profile, embed, walk-sample, encode) over four applications at two
// worker counts. jobs=1 is the exact legacy serial path; jobs=4 fans the
// per-app profile jobs and per-(program,variant) encode jobs over the
// pool. Build guarantees bit-identical records at every worker count, so
// the records/op metric must match between the two sub-benchmarks.
func BenchmarkDatasetEncode(b *testing.B) {
	b.ReportAllocs()
	all := bench.Corpus()
	apps := []bench.App{all[3], all[5], all[9], all[10]} // IS, CG, jacobi-2d, seidel-2d
	for _, jobs := range []int{1, 4} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			setJobs(b, jobs)
			cfg := dataset.Config{
				Variants:   2,
				WalkParams: walks.Params{Length: 4, Gamma: 12},
				WalkLen:    4,
				EmbedCfg:   inst2vec.DefaultConfig,
				Seed:       1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _, err := dataset.Build(apps, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(d.Records)), "records")
			}
		})
	}
}

// forwardBenchModel trains the shared fixture of the forward-tier
// benchmarks (BenchmarkForwardF32, BenchmarkForwardI8): a small pipeline
// over three corpus apps, returning the trained model and its samples.
func forwardBenchModel(b *testing.B) (*gnn.MVGNN, []gnn.Sample) {
	b.Helper()
	setJobs(b, 1)
	all := bench.Corpus()
	opts := core.Options{
		Data: dataset.Config{
			Variants:   2,
			WalkParams: walks.Params{Length: 4, Gamma: 8},
			WalkLen:    4,
			EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
			Seed:       1,
		},
		Train: gnn.TrainConfig{Epochs: 2, LR: 0.005, Temperature: 0.5, ClipNorm: 5, Seed: 1},
		Seed:  1,
	}
	pl := core.NewPipeline(opts)
	if _, err := pl.TrainOnContext(context.Background(), []bench.App{all[3], all[4], all[9]}); err != nil {
		b.Fatal(err)
	}
	return pl.Model, dataset.Samples(pl.Dataset.Records)
}

// BenchmarkForwardF32 measures the full multi-view forward pass of a
// trained model under the float64 and float32 tiers on the same samples:
// float64 is the bit-identical reference path, float32 the quantized fast
// path with pre-transposed weights, table tanh and fused
// dense+activation. The benchgate pins both subs' allocs/op (the f32
// tier at zero, arena steady state) and watches ns/op. With Conv1D,
// Dense and the graph-conv matmul on tensor.VecMatAdd's AVX2 kernel and
// the padded SortPooling windows computed once, the float64 reference
// runs at about int8's speed, about half float32's, per loop on an AVX2
// host.
// Parity of the *outputs* is enforced elsewhere
// (TestPredictWithProbaF32Parity).
func BenchmarkForwardF32(b *testing.B) {
	mv, samples := forwardBenchModel(b)
	benchForwardTiers(b, samples, mv.Predictor(), mv.QuantizeF32().Predictor())
}

// BenchmarkForwardI8 measures the int8 inference tier beside the same
// float64/float32 subs on an identically trained model: per-channel
// quantized weights, dynamic activation quantization, int32 accumulation,
// dequantize-then-table-tanh epilogues (the sort-channel layer stays
// float32 — see dgcnnWeightsI8). The benchgate pins int8 allocs/op at
// zero (both arenas at steady state) and watches ns/op. Output drift is
// bounded elsewhere (TestPredictWithProbaI8Parity).
func BenchmarkForwardI8(b *testing.B) {
	mv, samples := forwardBenchModel(b)
	benchForwardTiers(b, samples, mv.Predictor(), mv.QuantizeF32().Predictor(), mv.QuantizeI8().Predictor())
}

// benchForwardTiers times the trained-head forward of each tier's
// Predictor (float64, float32, int8 in that order) in a subtest named
// after the tier. Quantization happens before the call, outside the
// timed region, and every tier is first warmed over every sample so
// allocs/op measures the steady state regardless of b.N.
func benchForwardTiers(b *testing.B, samples []gnn.Sample, tiers ...gnn.Predictor) {
	ctx := context.Background()
	for _, p := range tiers {
		for _, s := range samples {
			p.Predict(ctx, s, gnn.ViewTrained)
		}
	}
	for i, p := range tiers {
		b.Run([]string{"float64", "float32", "int8"}[i], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Predict(ctx, samples[i%len(samples)], gnn.ViewTrained)
			}
		})
	}
}

// BenchmarkMVGNNInference measures single-sample prediction latency of a
// trained multi-view model.
func BenchmarkMVGNNInference(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	d := miniDataset(b, cfg)
	p := gnn.NewMVGNN(d.NodeDim, d.StructDim, cfg.Seed).Predictor()
	samples := dataset.Samples(d.Records)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(ctx, samples[i%len(samples)], gnn.ViewTrained)
	}
}

// BenchmarkExtensionPatterns runs the future-work pattern-classification
// extension (sequential / DoALL / reduction) at mini scale.
func BenchmarkExtensionPatterns(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	var res *core.PatternResult
	for i := 0; i < b.N; i++ {
		r, err := core.RunPatternExperiment(miniStudy(b, cfg))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.Logf("\n%s", core.RenderPatterns(res))
	b.ReportMetric(100*res.Accuracy, "acc_pattern")
	for i, name := range dataset.PatternNames {
		b.ReportMetric(100*res.PerClass[i], "recall_"+name)
	}
}

// BenchmarkAblationPretraining compares supervised training with and
// without the unsupervised GraphSAGE warm-up (§III-E).
func BenchmarkAblationPretraining(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	d := miniDataset(b, cfg)
	train, test := dataset.Split(d.Records, 0.75, cfg.Seed)
	train = dataset.Balance(train, 0, cfg.Seed)
	ts, es := dataset.Samples(train), dataset.Samples(test)
	for _, pre := range []int{0, 3} {
		pre := pre
		b.Run(fmt.Sprintf("pretrain%d", pre), func(b *testing.B) {
			b.ReportAllocs()
			tc := gnn.TrainConfig{Epochs: cfg.Epochs, LR: 0.003, Temperature: 0.5,
				ClipNorm: 5, BatchSize: 8, PretrainEpochs: pre, Seed: cfg.Seed}
			for i := 0; i < b.N; i++ {
				mv := gnn.NewMVGNN(d.NodeDim, d.StructDim, cfg.Seed)
				mv.Train(ts, tc, nil)
				b.ReportMetric(100*gnn.Evaluate(mv.Predictor().Labeler(gnn.ViewTrained), es), "acc")
			}
		})
	}
}

// BenchmarkESPValidation validates the ESP feature (Table I's Amdahl
// heuristic) against the scheduler simulator: over a sample of corpus
// loops it reports the pairwise ordering agreement between estimated and
// simulated speedup (1.0 = ESP ranks every loop pair like the simulator).
func BenchmarkESPValidation(b *testing.B) {
	b.ReportAllocs()
	apps := bench.Corpus()
	sample := []bench.App{apps[3], apps[4], apps[9], apps[11]} // IS, EP, jacobi-2d, trmm
	type pt struct{ esp, sim float64 }
	var agreement float64
	for iter := 0; iter < b.N; iter++ {
		var pts []pt
		for _, app := range sample {
			prog := ir.MustLower(minic.MustParse(app.Name, app.Source))
			res, _, err := deps.Analyze(prog, "main", interp.Limits{})
			if err != nil {
				b.Fatal(err)
			}
			cus := cu.Build(prog)
			for _, id := range prog.LoopIDs() {
				dag, err := sched.BuildDAG(prog, "main", id, interp.Limits{})
				if err != nil || dag.Iterations < 2 {
					continue
				}
				f := features.Extract(prog, cus, res, id)
				pts = append(pts, pt{esp: f.ESP, sim: dag.Simulate(features.MaxThreads).Speedup})
			}
		}
		concordant, total := 0, 0
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				di, dj := pts[i], pts[j]
				if di.sim == dj.sim || di.esp == dj.esp {
					continue
				}
				total++
				if (di.esp > dj.esp) == (di.sim > dj.sim) {
					concordant++
				}
			}
		}
		if total > 0 {
			agreement = float64(concordant) / float64(total)
		}
		b.ReportMetric(float64(len(pts)), "loops")
	}
	b.ReportMetric(agreement, "esp_sim_agreement")
}

// BenchmarkRobustnessKFold cross-validates the MV-GNN (3 folds) at mini
// scale and reports mean and standard deviation of held-out accuracy.
func BenchmarkRobustnessKFold(b *testing.B) {
	b.ReportAllocs()
	cfg := miniConfig()
	var res *core.RobustnessResult
	for i := 0; i < b.N; i++ {
		r, err := core.RunRobustness(miniStudy(b, cfg), 3)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(100*res.Mean, "acc_mean")
	b.ReportMetric(100*res.Std, "acc_std")
}

// BenchmarkClassifyTracingDisabled measures the serving-path
// classification — Classifier.ClassifyContext, the exact call the
// inference server's classify handler makes — on an untraced context. The
// request-tracing layer (internal/obs/trace) promises that every span
// call is a free no-op when no trace rides the context, so this
// benchmark's allocs/op is the tracing-disabled baseline: the benchgate
// holds it to zero growth, catching any change that makes the disabled
// path allocate. Serial encode (one worker) keeps the count exact.
func BenchmarkClassifyTracingDisabled(b *testing.B) {
	const src = `
float x[8]; float y[8];
void main() { for (int i = 0; i < 8; i++) { y[i] = x[i] * 3.0; } }
`
	benchClassify(b, "bench", src)
}

// BenchmarkClassifyNPB is one uncached classify of NPB MG (74 loops) on
// the serial serving path: parse, profile, and per variant the CU set,
// PEG and every loop's sub-PEG, features, walks and encoding, then the
// forwards. The encode stage makes most of its allocations. It stays out
// of the benchgate: its allocs/op move by a few between runs of one
// binary (15,138-15,141 over five runs at 5x), because garbage
// collection empties the standard library's sync.Pool caches; with
// GOGC=off every run reads the same count.
func BenchmarkClassifyNPB(b *testing.B) {
	app := bench.Corpus()[6]
	benchClassify(b, app.Name, app.Source)
}

// benchClassify trains a small pipeline on one worker, then times
// ClassifyContext on src.
func benchClassify(b *testing.B, name, src string) {
	b.ReportAllocs()
	setJobs(b, 1)
	all := bench.Corpus()
	opts := core.Options{
		Data: dataset.Config{
			Variants:   2,
			WalkParams: walks.Params{Length: 4, Gamma: 8},
			WalkLen:    4,
			EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
			Seed:       1,
		},
		Train: gnn.TrainConfig{Epochs: 2, LR: 0.005, Temperature: 0.5, ClipNorm: 5, Seed: 1},
		Seed:  1,
	}
	pl := core.NewPipeline(opts)
	if _, err := pl.TrainOnContext(context.Background(), []bench.App{all[3], all[4], all[9]}); err != nil {
		b.Fatal(err)
	}
	cls, err := pl.Classifier()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cls.ClassifyContext(ctx, name, src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cls.ClassifyContext(ctx, name, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpMM compares the CSR propagation kernel against the dense
// matmul it replaced, at adjacency-like sparsity (~4 entries per row, the
// corpus sub-PEG profile).
func BenchmarkSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n, f = 64, 16
	rowPtr := make([]int, n+1)
	var colIdx []int
	var val []float64
	for i := 0; i < n; i++ {
		cols := map[int]bool{i: true}
		for len(cols) < 4 {
			cols[rng.Intn(n)] = true
		}
		for j := 0; j < n; j++ {
			if cols[j] {
				colIdx = append(colIdx, j)
				val = append(val, 1/float64(len(cols)))
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	s := tensor.NewCSR(n, n, rowPtr, colIdx, val)
	h := tensor.Randn(n, f, 1, rng)
	out := tensor.New(n, f)
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.SpMMInto(s, h, out)
		}
	})
	dense := s.Dense()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(dense, h, out)
		}
	})
}

// BenchmarkTrainStepAllocs measures one full DGCNN training step —
// forward, loss, backward, optimizer — on a representative sub-PEG. The
// allocs/op column is the PR-4 headline: after arena warm-up the step
// allocates only what the loss layer and optimizer bookkeeping need.
func BenchmarkTrainStepAllocs(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(10))
	cfg := gnn.DefaultConfig(6)
	d := gnn.NewDGCNN(cfg, rng)
	line := graph.New(12)
	for i := 0; i+1 < 12; i++ {
		line.AddEdge(i, i+1, 0)
	}
	g := gnn.Encode(line, tensor.Randn(12, 6, 1, rng))
	loss := &nn.SoftmaxCrossEntropy{Temperature: 0.5}
	opt := nn.NewAdam(0.003)
	params := d.Params()
	label := []int{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := d.Forward(g)
		_, grad := loss.Loss(logits, label)
		d.Backward(grad)
		opt.Step(params)
	}
}
