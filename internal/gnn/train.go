package gnn

import (
	"context"
	"math/rand"

	"mvpar/internal/nn"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
	"mvpar/internal/pool"
	"mvpar/internal/tensor"
)

// TrainConfig controls supervised training of the graph models.
type TrainConfig struct {
	Epochs      int
	LR          float64
	Temperature float64 // softmax temperature (the paper trains at 0.5)
	ClipNorm    float64
	BatchSize   int     // gradient-accumulation batch (paper uses 32); 0 = 1
	AuxWeight   float64 // deep-supervision weight on each view's own head (MV-GNN only)
	// PretrainEpochs, when positive, runs the unsupervised GraphSAGE
	// objective (§III-E) on each view's conv stack before supervised
	// training.
	PretrainEpochs int
	Seed           int64
	// Ctx, when non-nil, is checked at every batch boundary; a done
	// context stops training early and the curve so far is returned.
	// Callers that need an error must inspect Ctx.Err() afterwards.
	Ctx context.Context
}

// DefaultTrainConfig is sized so the built-in experiments train in
// seconds while preserving the paper's loss (softmax at temperature 0.5).
var DefaultTrainConfig = TrainConfig{
	Epochs:      30,
	LR:          0.003,
	Temperature: 0.5,
	ClipNorm:    5,
	BatchSize:   8,
	AuxWeight:   0.5,
	Seed:        1,
}

// EpochStats records one epoch of training for figure-7 style curves.
type EpochStats struct {
	Epoch int
	Loss  float64
	Acc   float64
}

// classifier abstracts MVGNN and single-view DGCNN training. trainStep
// runs forward, loss and backward for one sample and returns the loss and
// the fused prediction.
type classifier interface {
	trainStep(s Sample, loss *nn.SoftmaxCrossEntropy, aux float64) (float64, int)
	params() []*nn.Param
	// clip applies gradient clipping at batch boundaries; groups that
	// train independently (the two views) clip independently so neither
	// starves the other of its gradient budget.
	clip(norm float64)
	// replicate returns a worker-private copy sharing this classifier's
	// weights but owning its own gradient buffers and activation caches,
	// with params() in the same order as the original.
	replicate() classifier
}

// SingleView wraps one DGCNN over either the node or the structural
// encoding of each sample — the "Static GNN" baseline and the per-view
// probes of figure 8.
type SingleView struct {
	Net       *DGCNN
	UseStruct bool
}

// NewSingleView builds a single-view classifier.
func NewSingleView(inputDim int, useStruct bool, seed int64) *SingleView {
	rng := rand.New(rand.NewSource(seed))
	return &SingleView{Net: NewDGCNN(DefaultConfig(inputDim), rng), UseStruct: useStruct}
}

func (v *SingleView) pick(s Sample) *EncodedGraph {
	if v.UseStruct {
		return s.Struct
	}
	return s.Node
}

func (v *SingleView) trainStep(s Sample, loss *nn.SoftmaxCrossEntropy, aux float64) (float64, int) {
	logits := v.Net.Forward(v.pick(s))
	l, grad := loss.Loss(logits, []int{s.Label})
	v.Net.Backward(grad)
	return l, nn.Predict(logits)[0]
}

func (v *SingleView) params() []*nn.Param { return v.Net.Params() }

func (v *SingleView) clip(norm float64) { nn.ClipGrads(v.Net.Params(), norm) }

func (v *SingleView) replicate() classifier {
	return &SingleView{Net: v.Net.Replicate(), UseStruct: v.UseStruct}
}

// Predict returns the predicted class for one sample.
func (v *SingleView) Predict(s Sample) int {
	return nn.Predict(v.Net.Forward(v.pick(s)))[0]
}

// Train runs supervised training of the multi-view model and returns the
// per-epoch curve (figure 7). hook, if non-nil, observes each epoch.
//
// Training is staged, the standard schedule for late-fusion multi-view
// models: first both views learn with their own classification heads
// (deep supervision), then the view bodies are frozen and the fusion head
// is fitted on their outputs — so the fused model starts from the best
// single view and can only add structural evidence on top.
func (m *MVGNN) Train(samples []Sample, cfg TrainConfig, hook func(EpochStats)) []EpochStats {
	_, span := trace.StartSpan(cfg.Ctx, "gnn.train")
	defer span.End()
	if cfg.Epochs <= 0 {
		cfg = DefaultTrainConfig
	}
	// Carve out an internal validation slice (~15%) the optimizer never
	// sees; it decides which head (fused / node / struct) the model uses
	// at inference, so the multi-view model cannot silently regress below
	// its own views on unseen data.
	fit, sel := samples, samples
	if len(samples) >= 40 {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x51ED))
		idx := rng.Perm(len(samples))
		cut := len(samples) - len(samples)*15/100
		fit = make([]Sample, 0, cut)
		sel = make([]Sample, 0, len(samples)-cut)
		for _, i := range idx[:cut] {
			fit = append(fit, samples[i])
		}
		for _, i := range idx[cut:] {
			sel = append(sel, samples[i])
		}
	}
	samples = fit
	if cfg.PretrainEpochs > 0 {
		_, pretrainSpan := trace.StartSpan(cfg.Ctx, "gnn.pretrain")
		nodeGraphs := make([]*EncodedGraph, len(samples))
		structGraphs := make([]*EncodedGraph, len(samples))
		for i, s := range samples {
			nodeGraphs[i] = s.Node
			structGraphs[i] = s.Struct
		}
		m.NodeView.Pretrain(nodeGraphs, cfg.PretrainEpochs, cfg.LR, cfg.Seed)
		m.StructView.Pretrain(structGraphs, cfg.PretrainEpochs, cfg.LR, cfg.Seed+1)
		pretrainSpan.End()
	}
	viewCfg := cfg
	curve := trainLoop(&viewPhase{m: m}, samples, viewCfg, hook)

	fuseCfg := cfg
	fuseCfg.Epochs = cfg.Epochs/4 + 1
	curve = append(curve, trainLoop(&fusePhase{m: m}, samples, fuseCfg, hook)...)

	m.predictMode = 0
	// Head selection fans out over replicas: each evaluation worker gets a
	// private copy so concurrent forward passes never share layer caches.
	headAcc := func(h View) float64 {
		return EvaluateParallel(func() func(Sample) int { return m.Predictor().Replicate().Labeler(h) }, sel)
	}
	fusedAcc, nodeAcc, structAcc := headAcc(viewFused), headAcc(ViewNode), headAcc(ViewStruct)
	if nodeAcc > fusedAcc && nodeAcc >= structAcc {
		m.predictMode = 1
	} else if structAcc > fusedAcc && structAcc > nodeAcc {
		m.predictMode = 2
	}
	return curve
}

// viewPhase trains both view bodies through their own heads.
type viewPhase struct{ m *MVGNN }

func (p *viewPhase) trainStep(s Sample, loss *nn.SoftmaxCrossEntropy, aux float64) (float64, int) {
	m := p.m
	hn := m.NodeView.PenultForward(s.Node)
	hs := m.StructView.PenultForward(s.Struct)
	ln := m.NodeView.head.Forward(hn)
	ls := m.StructView.head.Forward(hs)
	label := []int{s.Label}
	l1, gn := loss.Loss(ln, label)
	_, gs := loss.Loss(ls, label)
	m.NodeView.BackwardFromPenult(m.NodeView.head.Backward(gn))
	m.StructView.BackwardFromPenult(m.StructView.head.Backward(gs))
	return l1, nn.Predict(ln)[0]
}

func (p *viewPhase) params() []*nn.Param {
	return append(p.m.NodeView.Params(), p.m.StructView.Params()...)
}

func (p *viewPhase) clip(norm float64) {
	nn.ClipGrads(p.m.NodeView.Params(), norm)
	nn.ClipGrads(p.m.StructView.Params(), norm)
}

func (p *viewPhase) replicate() classifier { return &viewPhase{m: p.m.Replicate()} }

// fusePhase trains only the fusion head over frozen view outputs.
type fusePhase struct{ m *MVGNN }

func (p *fusePhase) trainStep(s Sample, loss *nn.SoftmaxCrossEntropy, aux float64) (float64, int) {
	m := p.m
	fused, _, _ := m.ForwardAll(s)
	l, gf := loss.Loss(fused, []int{s.Label})
	// Backprop stops at the fusion input: view bodies stay frozen.
	m.fuse.Backward(m.out.Backward(gf))
	return l, nn.Predict(fused)[0]
}

func (p *fusePhase) params() []*nn.Param { return p.m.out.Params() }

func (p *fusePhase) clip(norm float64) { nn.ClipGrads(p.m.out.Params(), norm) }

func (p *fusePhase) replicate() classifier { return &fusePhase{m: p.m.Replicate()} }

// Train runs supervised training of a single-view model.
func (v *SingleView) Train(samples []Sample, cfg TrainConfig, hook func(EpochStats)) []EpochStats {
	return trainLoop(v, samples, cfg, hook)
}

// stepOut is one training step's contribution to the epoch statistics.
type stepOut struct {
	loss float64
	pred int
}

func trainLoop(c classifier, samples []Sample, cfg TrainConfig, hook func(EpochStats)) []EpochStats {
	if cfg.Epochs <= 0 {
		cfg = DefaultTrainConfig
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	loss := &nn.SoftmaxCrossEntropy{Temperature: cfg.Temperature}
	opt := nn.NewAdam(cfg.LR)
	params := c.params()
	order := rng.Perm(len(samples))
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	workers := pool.DefaultParallelism()
	if workers > batch {
		// A minibatch is the unit of fan-out; more workers than batch
		// slots would idle.
		workers = batch
	}

	// Data-parallel state: worker-private model replicas (shared weights,
	// private gradients) and one shadow-gradient slot per minibatch
	// position. Slot k receives exactly sample k's gradient, so reducing
	// slots into the master in slot order reproduces the serial in-place
	// accumulation bit for bit, independent of the worker count.
	var reps []classifier
	var repParams [][]*nn.Param
	var slots [][]*tensor.Matrix
	if workers > 1 {
		reps = make([]classifier, workers)
		repParams = make([][]*nn.Param, workers)
		for w := range reps {
			reps[w] = c.replicate()
			repParams[w] = reps[w].params()
		}
		slots = make([][]*tensor.Matrix, batch)
		for k := range slots {
			slots[k] = make([]*tensor.Matrix, len(params))
			for j, p := range params {
				slots[k][j] = tensor.New(p.Value.Rows, p.Value.Cols)
			}
		}
	}

	cancelled := func() bool { return cfg.Ctx != nil && cfg.Ctx.Err() != nil }
	var curve []EpochStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cancelled() {
			obs.Warn("gnn.train.cancelled", "epoch", epoch)
			return curve
		}
		_, epochSpan := trace.StartSpan(cfg.Ctx, "gnn.epoch")
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss := 0.0
		correct := 0
		if workers > 1 {
			for lo := 0; lo < len(order); lo += batch {
				// Same cancellation point as the serial loop: the check
				// before the first sample of each minibatch.
				if cancelled() {
					break
				}
				hi := lo + batch
				if hi > len(order) {
					hi = len(order)
				}
				idxs := order[lo:hi]
				outs, err := pool.MapWorker(pool.Config{Workers: workers}, len(idxs), func(w, k int) (stepOut, error) {
					s := samples[idxs[k]]
					l, pred := reps[w].trainStep(s, loss, cfg.AuxWeight)
					// Move the replica's per-sample gradient into slot k and
					// clear it for the worker's next sample.
					for j, p := range repParams[w] {
						dst := slots[k][j].Data
						for i, v := range p.Grad.Data {
							dst[i] = v
							p.Grad.Data[i] = 0
						}
					}
					return stepOut{loss: l, pred: pred}, nil
				})
				if err != nil {
					// trainStep returns no errors, so this can only be a
					// captured worker panic; resurface it like the serial
					// loop would have.
					panic(err)
				}
				// Reduce in slot (= sample) order, then clip and step with
				// the exact serial batch semantics.
				for k := range idxs {
					for j := range params {
						params[j].Grad.AddInPlace(slots[k][j])
					}
					totalLoss += outs[k].loss
					if outs[k].pred == samples[idxs[k]].Label {
						correct++
					}
				}
				if cfg.ClipNorm > 0 {
					c.clip(cfg.ClipNorm)
				}
				opt.Step(params)
			}
		} else {
			pending := 0
			step := func() {
				if pending == 0 {
					return
				}
				if cfg.ClipNorm > 0 {
					c.clip(cfg.ClipNorm)
				}
				opt.Step(params)
				pending = 0
			}
			for _, idx := range order {
				if pending == 0 && cancelled() {
					break
				}
				s := samples[idx]
				l, pred := c.trainStep(s, loss, cfg.AuxWeight)
				totalLoss += l
				if pred == s.Label {
					correct++
				}
				pending++
				if pending >= batch {
					step()
				}
			}
			step()
		}
		st := EpochStats{
			Epoch: epoch,
			Loss:  totalLoss / float64(max(1, len(samples))),
			Acc:   float64(correct) / float64(max(1, len(samples))),
		}
		curve = append(curve, st)
		obs.GetCounter("mvpar_train_epochs_total").Inc()
		epochSpan.End()
		if hook != nil {
			hook(st)
		}
	}
	return curve
}

// Evaluate returns accuracy of predict over samples.
func Evaluate(predict func(Sample) int, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if predict(s) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// EvaluateParallel is Evaluate fanned out over the worker pool. Model
// forward passes cache activations in their layers, so a single predictor
// cannot be shared between workers; newPredict is called once per worker
// to build a private predictor (typically
// Predictor().Replicate().Labeler(v)) on each of
// pool.DefaultParallelism() workers; at one worker newPredict is called
// once and the serial Evaluate runs. Accuracy is a count of independent
// per-sample hits, so the result is identical at any worker count.
func EvaluateParallel(newPredict func() func(Sample) int, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	jobs := pool.DefaultParallelism()
	if jobs > len(samples) {
		jobs = len(samples)
	}
	if jobs == 1 {
		return Evaluate(newPredict(), samples)
	}
	preds := make([]func(Sample) int, jobs)
	for w := range preds {
		preds[w] = newPredict()
	}
	hits, err := pool.MapWorker(pool.Config{Workers: jobs}, len(samples), func(w, i int) (bool, error) {
		return preds[w](samples[i]) == samples[i].Label, nil
	})
	if err != nil {
		panic(err) // predictors return no errors; only a captured panic lands here
	}
	correct := 0
	for _, h := range hits {
		if h {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
