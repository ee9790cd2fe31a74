package gnn

import (
	"fmt"
	"io"
	"math/rand"

	"mvpar/internal/nn"
	"mvpar/internal/tensor"
)

// Sample is one classification instance: the same sub-PEG encoded twice —
// once with node features (inst2vec + dynamic features) and once with
// structural features (anonymous-walk distributions) — plus its label.
type Sample struct {
	Node   *EncodedGraph
	Struct *EncodedGraph
	Label  int
	// Meta carries provenance for evaluation (program name, loop ID, suite).
	Meta SampleMeta
}

// SampleMeta identifies where a sample came from. Func and Line locate
// the loop in its source; they are empty for a sample built without a
// lowered program.
type SampleMeta struct {
	Program string
	Suite   string
	App     string
	LoopID  int
	Variant int
	Func    string
	Line    int
}

// MVGNN is the multi-view model: one DGCNN per view, fused per eq. 5 as
// h = W·tanh([h_n ⊕ h_s]) + b over the views' outputs, followed by a
// softmax classification loss. Following figure 3 ("takes the
// distribution output of the two GCNs"), the fusion consumes each view's
// class-logit output, which keeps the fused head stable while the views
// are still moving.
type MVGNN struct {
	NodeView   *DGCNN
	StructView *DGCNN
	fuse       *nn.Tanh
	out        *nn.Dense

	// arena backs the fusion layers' buffers (each view owns its own);
	// reset once per sample at the start of ForwardAll.
	arena *tensor.Arena

	// predictMode selects the inference head after staged training:
	// 0 = fused (default), 1 = node head, 2 = struct head. Train picks
	// the head with the best training accuracy (fused wins ties), so the
	// multi-view model never regresses below its own views.
	predictMode int

	// f32 and i8 cache the lazily built quantized engines behind
	// PredictWithProbaF32 and PredictWithProbaI8. Like the rest of the
	// model's mutable state they are goroutine-private (replicas do not
	// inherit them); they snapshot the weights at first use, so they must
	// only be exercised on a frozen (post-training) model. Load drops
	// them, so the next call quantizes the loaded weights.
	f32 *MVGNNF32
	i8  *MVGNNI8
}

// NewMVGNN builds the binary multi-view model. nodeDim and structDim are
// the per-view input feature dimensions.
func NewMVGNN(nodeDim, structDim int, seed int64) *MVGNN {
	return NewMVGNNClasses(nodeDim, structDim, 2, seed)
}

// NewMVGNNClasses builds a multi-view model with an arbitrary number of
// classes — the parallel-pattern extension classifies
// sequential/DoALL/reduction with three.
func NewMVGNNClasses(nodeDim, structDim, classes int, seed int64) *MVGNN {
	nodeCfg := DefaultConfig(nodeDim)
	nodeCfg.Prefix = "node."
	nodeCfg.NumClasses = classes
	structCfg := DefaultConfig(structDim)
	structCfg.Prefix = "struct."
	structCfg.NumClasses = classes
	// Each view gets its own RNG stream: the node view's initialization is
	// then bit-identical to a standalone SingleView with the same seed,
	// which makes "multi-view never loses to single view" checkable.
	arena := tensor.NewArena()
	m := &MVGNN{
		NodeView:   NewDGCNN(nodeCfg, rand.New(rand.NewSource(seed))),
		StructView: NewDGCNN(structCfg, rand.New(rand.NewSource(seed^0x5DEECE66D))),
		fuse:       &nn.Tanh{Scratch: arena},
		arena:      arena,
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	m.out = nn.NewDense("mv.out", 2*classes, classes, rng)
	m.out.Scratch = arena
	// Prior: the fused head starts as an exact copy of the node view
	// (tanh is monotone, so argmax is preserved). Fusion training then
	// only departs from the stronger view where the structural view adds
	// consistent evidence.
	for i := range m.out.W.Value.Data {
		m.out.W.Value.Data[i] = 0
	}
	for c := 0; c < classes; c++ {
		m.out.W.Value.Set(c, c, 1)
	}
	return m
}

// headBlob names the checkpoint blob that holds predictMode as a 1x1
// value.
const headBlob = "mv.head"

// Save writes m's weights and its trained head to w in the nn.SaveParams
// format. The head is one extra blob, mv.head, which Load requires.
func (m *MVGNN) Save(w io.Writer) error {
	head := nn.NewParam(headBlob, tensor.FromSlice(1, 1, []float64{float64(m.predictMode)}))
	return nn.SaveParams(w, append(m.Params(), head))
}

// Load reads a checkpoint written by Save into m. A checkpoint without
// the mv.head blob fails, naming it. The checkpoint is read into staging
// params first (LoadParams replaces a param's Value rather than writing
// into it), so on any error, a missing or bad head included, m keeps its
// weights and head. A successful load drops the
// cached float32 and int8 engines, which snapshot the old weights.
func (m *MVGNN) Load(r io.Reader) error {
	params := m.Params()
	staged := make([]*nn.Param, len(params))
	for i, p := range params {
		staged[i] = &nn.Param{Name: p.Name, Value: p.Value}
	}
	head := nn.NewParam(headBlob, tensor.New(1, 1))
	if err := nn.LoadParams(r, append(staged, head)); err != nil {
		return err
	}
	mode := head.Value.Data[0]
	if mode != 0 && mode != 1 && mode != 2 {
		return fmt.Errorf("gnn: checkpoint head %v, want 0 (fused), 1 (node) or 2 (struct)", mode)
	}
	for i, p := range params {
		p.Value = staged[i].Value
	}
	m.predictMode = int(mode)
	m.f32, m.i8 = nil, nil
	return nil
}

// Head reports which head answers ViewTrained predictions: the fusion
// head or one view's own head, as Train selected it.
func (m *MVGNN) Head() View { return headView(m.predictMode) }

// headView maps a predictMode (0 fused, 1 node, 2 struct) to the View
// whose logits answer for it.
func headView(mode int) View {
	return [...]View{viewFused, ViewNode, ViewStruct}[mode]
}

// Params returns all trainable parameters of both views and the fusion.
func (m *MVGNN) Params() []*nn.Param {
	ps := append(m.NodeView.Params(), m.StructView.Params()...)
	return append(ps, m.out.Params()...)
}

// Replicate returns a worker-private copy sharing m's weights but owning
// its own gradient buffers and layer activation caches, so concurrent
// forward/backward passes on different replicas never race. See
// DGCNN.Replicate for the sharing contract.
func (m *MVGNN) Replicate() *MVGNN {
	arena := tensor.NewArena()
	out := m.out.Replicate()
	out.Scratch = arena
	return &MVGNN{
		NodeView:    m.NodeView.Replicate(),
		StructView:  m.StructView.Replicate(),
		fuse:        &nn.Tanh{Scratch: arena},
		out:         out,
		arena:       arena,
		predictMode: m.predictMode,
	}
}

// ForwardAll returns the fused logits plus each view's own head logits
// (used for deep supervision during training and the figure-8 probes).
// The internal caches remain valid for BackwardAll.
func (m *MVGNN) ForwardAll(s Sample) (fused, nodeLogits, structLogits *tensor.Matrix) {
	m.arena.Reset()
	hn := m.NodeView.PenultForward(s.Node)
	hs := m.StructView.PenultForward(s.Struct)
	nodeLogits = m.NodeView.head.Forward(hn)
	structLogits = m.StructView.head.Forward(hs)
	cat := m.arena.Get(1, nodeLogits.Cols+structLogits.Cols)
	tensor.ConcatInto(nodeLogits, structLogits, cat)
	fused = m.out.Forward(m.fuse.Forward(cat))
	return
}

// Forward returns the fused logits for one sample.
func (m *MVGNN) Forward(s Sample) *tensor.Matrix {
	fused, _, _ := m.ForwardAll(s)
	return fused
}

// BackwardAll backpropagates the fused gradient and the two auxiliary
// per-view gradients after a ForwardAll.
func (m *MVGNN) BackwardAll(dFused, dNode, dStruct *tensor.Matrix) {
	g := m.fuse.Backward(m.out.Backward(dFused))
	gn, gs := tensor.SplitCols(g, m.NodeView.Cfg.NumClasses)
	gn.AddInPlace(dNode)
	gs.AddInPlace(dStruct)
	m.NodeView.BackwardFromPenult(m.NodeView.head.Backward(gn))
	m.StructView.BackwardFromPenult(m.StructView.head.Backward(gs))
}

// Backward backpropagates a fused-logits gradient through the fusion and
// both views, accumulating parameter gradients.
func (m *MVGNN) Backward(dLogits *tensor.Matrix) {
	zn := tensor.New(1, m.NodeView.Cfg.NumClasses)
	zs := tensor.New(1, m.StructView.Cfg.NumClasses)
	m.BackwardAll(dLogits, zn, zs)
}
