// Package deps performs dynamic data-dependence analysis over the
// instrumentation stream emitted by internal/interp, the analogue of
// DiscoPoP's phase-1 dependence extraction. It produces:
//
//   - statement-level dependence edges (RAW/WAR/WAW, loop-carried or not),
//     which become the edges of the program execution graph, and
//   - a per-loop parallelizability verdict (the oracle label): a loop is
//     DoALL-parallelizable when every loop-carried dependence is either a
//     recognized reduction or removable by privatization.
//
// The analyzer is an online shadow-memory pass: per address it keeps the
// last write and the reads since that write, each with a snapshot of the
// dynamic loop stack, so every dependence can be attributed to the unique
// loop that carries it (the outermost shared loop instance whose iteration
// numbers differ). Interpreter addresses are dense and never reused, so
// the shadow is an address-indexed table rather than a hash map.
//
// The Analyzer is the interpreter's only tracer on the profiling path,
// and its state is integer-keyed: distinct edges sit in a slice found by
// the packed (source, destination) statement pair, and the per-loop
// evidence in a slice indexed by loop ID. The loop iteration and
// instance counts come from the interpreter's Stats.
package deps

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Kind is a dependence kind.
type Kind int

// Dependence kinds.
const (
	RAW Kind = iota // read after write (true/flow dependence)
	WAR             // write after read (anti dependence)
	WAW             // write after write (output dependence)
)

func (k Kind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	default:
		return "WAW"
	}
}

// Edge is a statement-level dependence: the statement DstStmt depends on
// SrcStmt. Carrier is the loop ID carrying the dependence, or 0 with
// Carried false for a loop-independent dependence.
type Edge struct {
	Kind      Kind
	SrcStmt   int
	DstStmt   int
	Carried   bool
	Carrier   int
	Reduction bool // both endpoints are reduction-tagged with the same kind
	// Distance is the smallest iteration distance observed for a carried
	// dependence (1 = adjacent iterations); 0 for loop-independent edges.
	Distance int64
}

// Verdict is the oracle decision for one loop.
type Verdict struct {
	LoopID         int
	Parallelizable bool
	HasReduction   bool     // parallelizable via a recognized reduction
	Reasons        []string // human-readable blocking reasons (empty if parallelizable)
	Detail         Detail
}

// Detail exposes the individual evidence classes behind a verdict so
// alternative decision rules (the tool emulators in internal/tools) can be
// derived from the same measurement.
type Detail struct {
	LCRawBad    bool // non-reduction loop-carried RAW present
	LCWarBad    bool // exposed-read loop-carried WAR present
	LCWawArray  bool // loop-carried WAW on array elements present
	HasRed      bool // reduction-paired carried RAW present
	RedPoisoned bool // a reduction location is also accessed outside the reduction
}

// Result is the outcome of analyzing one execution.
type Result struct {
	Edges    []Edge // sorted by source, destination, kind and carrier
	Verdicts map[int]Verdict
	// Iterations and Instances mirror the interpreter's loop statistics.
	Iterations map[int]int64
	Instances  map[int]int64

	// The edges by statement, built once by Finalize so that concurrent
	// readers only read: the edges leaving statement s are
	// Edges[srcOff[s]:srcOff[s+1]], the positions of those entering it
	// dstIdx[dstOff[s]:dstOff[s+1]].
	srcOff, dstOff, dstIdx []int32
}

// EdgesFrom returns the edges whose source is statement s, in Edges
// order. The slice is shared and read-only.
func (r *Result) EdgesFrom(s int) []Edge {
	if s < 0 || s+1 >= len(r.srcOff) {
		return nil
	}
	return r.Edges[r.srcOff[s]:r.srcOff[s+1]]
}

// EdgesInto returns the positions in Edges of the edges whose destination
// is statement s, ascending. The slice is shared and read-only.
func (r *Result) EdgesInto(s int) []int32 {
	if s < 0 || s+1 >= len(r.dstOff) {
		return nil
	}
	return r.dstIdx[r.dstOff[s]:r.dstOff[s+1]]
}

// indexEdges builds the by-statement index of the sorted Edges.
func (r *Result) indexEdges() {
	maxStmt := -1
	for i := range r.Edges {
		maxStmt = max(maxStmt, r.Edges[i].SrcStmt, r.Edges[i].DstStmt)
	}
	// One slab: srcOff, dstOff, dstIdx, then the fill cursors.
	n := maxStmt + 2
	slab := make([]int32, 3*n+len(r.Edges))
	r.srcOff, r.dstOff = slab[:n:n], slab[n:2*n:2*n]
	r.dstIdx = slab[2*n : 2*n+len(r.Edges) : 2*n+len(r.Edges)]
	fill := slab[2*n+len(r.Edges):]
	for i := range r.Edges {
		r.srcOff[r.Edges[i].SrcStmt+1]++
		r.dstOff[r.Edges[i].DstStmt+1]++
	}
	for s := 1; s < n; s++ {
		r.srcOff[s] += r.srcOff[s-1]
		r.dstOff[s] += r.dstOff[s-1]
	}
	copy(fill, r.dstOff)
	for i := range r.Edges {
		d := r.Edges[i].DstStmt
		r.dstIdx[fill[d]] = int32(i)
		fill[d]++
	}
}

// accessRec is a snapshot of one dynamic access kept in shadow memory.
type accessRec struct {
	frames  []frameSnap // carved from Analyzer.arena, shared and immutable
	exposed uint64      // bit i set: read not preceded by a same-iteration write of frames[i]
	stmt    int32
	red     ir.RedOp
	array   bool
}

// exposedAt reports whether the read is exposed with respect to loop level
// i. The mask holds 64 levels; deeper levels (reached through recursion)
// always count as exposed, so the verdict fails closed.
func (r *accessRec) exposedAt(i int) bool {
	return i >= 64 || r.exposed&(1<<uint(i)) != 0
}

type frameSnap struct {
	id       int
	instance int64
	iter     int64
}

// cell is the shadow state for one address.
type cell struct {
	lastWrite accessRec // valid when written
	written   bool
	// The reads since the last write, oldest first: nReads nodes of
	// Analyzer.reads chained from head to tail.
	head, tail, nReads int32
	// ctrl holds the loops this address has been the control variable of;
	// nonRed the loops in which it was accessed outside a reduction while
	// not their control variable (which poisons a reduction on it).
	ctrl, nonRed loopSet
}

// readNode is one read in a cell's chain: next is the index of the next
// newer read of the chain, or of the next free node on the free list.
type readNode struct {
	rec  accessRec
	next int32
}

// loopSet is a small set of loop IDs (statement IDs, well inside int32).
// Most addresses belong to a few loops, so the first len(inline) IDs are
// stored in the cell itself and only larger sets allocate.
type loopSet struct {
	inline [3]int32
	n      int32
	more   []int32
}

func (s *loopSet) has(loop int) bool {
	id := int32(loop)
	for _, v := range s.inline[:min(s.n, int32(len(s.inline)))] {
		if v == id {
			return true
		}
	}
	for _, v := range s.more {
		if v == id {
			return true
		}
	}
	return false
}

// add inserts id, which must not be in the set yet.
func (s *loopSet) add(loop int) {
	id := int32(loop)
	if s.n < int32(len(s.inline)) {
		s.inline[s.n] = id
	} else {
		s.more = append(s.more, id)
	}
	s.n++
}

// shadowPage maps 1<<shadowPageBits consecutive addresses to 1 + the
// index of their cells, 0 for untouched.
type shadowPage [1 << shadowPageBits]int32

const shadowPageBits = 10

// table is a growable array whose elements never move: chunk k holds
// 1<<(k+tableChunkBits) elements, so a table of n elements costs about
// log2(n) allocations, a small one pays only for a small first chunk,
// and growing copies nothing.
type table[T any] struct {
	chunks [][]T
	n      int32
}

const tableChunkBits = 5

// at returns element i. With c = 1<<tableChunkBits, chunk k holds
// elements c(2^k-1) up to c(2^(k+1)-1).
func (t *table[T]) at(i int32) *T {
	k := bits.Len32(uint32(i)>>tableChunkBits+1) - 1
	return &t.chunks[k][int(i)+1<<tableChunkBits-1<<(k+tableChunkBits)]
}

// add appends a zero element and returns its index.
func (t *table[T]) add() int32 {
	if k := len(t.chunks); t.n == (1<<k-1)<<tableChunkBits {
		t.chunks = append(t.chunks, make([]T, 1<<(k+tableChunkBits)))
	}
	t.n++
	return t.n - 1
}

// Frame snapshots are carved from arena chunks of firstArenaFrames
// frames, doubling up to maxArenaFrames.
const (
	firstArenaFrames = 32
	maxArenaFrames   = 8192
)

// maxReadsPerCell bounds the reads kept between two writes of the same
// address; beyond it the oldest are dropped (ring). With the corpus's
// small kernels the cap is rarely reached, and any surviving cross-
// iteration read still flags the WAR.
const maxReadsPerCell = 256

// edgeMemoBits sizes the direct-mapped memo in front of the edge map: 64
// slots, 1 KiB per analyzer. With the memo, profiling SP
// (BenchmarkProfileCorpus) ran faster in 11 of 12 alternated rounds
// (median -11%); 256 slots measured no better.
const edgeMemoBits = 6

// Analyzer implements interp.Tracer.
type Analyzer struct {
	// Shadow memory: one cell per touched address, cell i found through
	// pages[addr>>shadowPageBits] holding 1+i. A page is allocated when
	// one of its addresses is first touched, so a large array with few
	// touched elements costs a few pages and one pointer per page of
	// address space, not a cell per element.
	pages []*shadowPage
	cells table[cell]

	// reads is the slab every cell's read chain lives in; free heads the
	// chain of unused nodes, -1 for none.
	reads table[readNode]
	free  int32

	// The distinct edges, in first-seen order. byPair maps a packed
	// (src, dst) statement pair to its most recent edge; next[i] is the
	// edge seen before edges[i] with the same pair, -1 for none.
	edges  []Edge
	next   []int32
	byPair map[uint64]int32
	// memo caches byPair: the slot a Fibonacci hash of the key picks
	// holds that key and 1 + its chain head, 0 when empty.
	memo [1 << edgeMemoBits]struct {
		key  uint64
		head int32
	}

	// loops holds the blocking evidence by loop ID.
	loops []loopState

	// frames is the snapshot of the live loop stack that every access
	// record shares until the next LoopEnter, LoopIter or LoopExit, the
	// only events at which the interpreter's loop stack changes; it is
	// valid while snapped. Records never modify it. Snapshots are carved
	// from arena, whose chunks are never reused or moved.
	frames  []frameSnap
	snapped bool
	arena   []frameSnap
}

// loopState is one loop's blocking evidence: the addresses with a
// non-reduction carried RAW, an exposed-read carried WAR or an array
// carried WAW, and the reduction kind of each address with a
// reduction-paired carried RAW. A set is allocated when its first
// address arrives.
type loopState struct {
	rawBad, warBad, wawArray map[uint64]struct{}
	rawRed                   map[uint64]ir.RedOp
}

// NewAnalyzer returns an empty analyzer ready to trace one execution.
func NewAnalyzer() *Analyzer {
	return &Analyzer{byPair: map[uint64]int32{}, free: -1}
}

// lookup returns addr's shadow cell, or nil if addr was never touched.
func (a *Analyzer) lookup(addr uint64) *cell {
	if p := addr >> shadowPageBits; p < uint64(len(a.pages)) && a.pages[p] != nil {
		if i := a.pages[p][addr&(1<<shadowPageBits-1)]; i != 0 {
			return a.cells.at(i - 1)
		}
	}
	return nil
}

// cellAt returns addr's shadow cell, creating it on first touch. Cells
// never move, so the pointer stays valid for the analyzer's life.
func (a *Analyzer) cellAt(addr uint64) *cell {
	if c := a.lookup(addr); c != nil {
		return c
	}
	p := addr >> shadowPageBits
	if n := int(p) + 1; n > len(a.pages) {
		a.pages = append(a.pages, make([]*shadowPage, n-len(a.pages))...)
	}
	if a.pages[p] == nil {
		a.pages[p] = new(shadowPage)
	}
	i := a.cells.add()
	a.pages[p][addr&(1<<shadowPageBits-1)] = i + 1
	return a.cells.at(i)
}

// loop returns the evidence of loop id, widening the table to hold it.
func (a *Analyzer) loop(id int) *loopState {
	if id >= len(a.loops) {
		a.loops = append(a.loops, make([]loopState, id+1-len(a.loops))...)
	}
	return &a.loops[id]
}

func mark(set *map[uint64]struct{}, addr uint64) {
	if *set == nil {
		*set = map[uint64]struct{}{}
	}
	(*set)[addr] = struct{}{}
}

// LoopEnter implements interp.Tracer.
func (a *Analyzer) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	a.snapped = false
	if hasCtrl {
		if c := a.cellAt(ctrlAddr); !c.ctrl.has(id) {
			c.ctrl.add(id)
		}
	}
}

// LoopIter implements interp.Tracer.
func (a *Analyzer) LoopIter(id int, instance, iter int64) { a.snapped = false }

// LoopExit implements interp.Tracer.
func (a *Analyzer) LoopExit(id int, instance, iters int64) { a.snapped = false }

// snapshot returns the shared snapshot of the live loop stack, copying
// frames into the arena only when a loop event has invalidated the
// previous one.
func (a *Analyzer) snapshot(frames []interp.LoopFrame) []frameSnap {
	if a.snapped {
		return a.frames
	}
	n := len(frames)
	if n > cap(a.arena)-len(a.arena) {
		size := min(max(2*cap(a.arena), firstArenaFrames), maxArenaFrames)
		a.arena = make([]frameSnap, 0, max(size, n))
	}
	a.frames = a.arena[len(a.arena) : len(a.arena)+n : len(a.arena)+n]
	a.arena = a.arena[:len(a.arena)+n]
	for i, f := range frames {
		a.frames[i] = frameSnap{id: f.ID, instance: f.Instance, iter: f.Iter}
	}
	a.snapped = true
	return a.frames
}

// carrierIndex finds the index of the loop carrying a dependence between
// two accesses: the first shared loop instance whose iterations differ.
// It returns -1 when the accesses are iteration-local everywhere.
func carrierIndex(a, b []frameSnap) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].instance != b[i].instance {
			return -1
		}
		if a[i].iter != b[i].iter {
			return i
		}
	}
	return -1
}

// recordEdge adds the edge, or for one already seen (same statements,
// kind, carrier and carriedness) keeps the smaller carried distance. The
// pair key is exact for any int32 statement IDs.
func (a *Analyzer) recordEdge(kind Kind, src, dst *accessRec, carrier int, carried bool, reduction bool, distance int64) {
	key := uint64(uint32(src.stmt))<<32 | uint64(uint32(dst.stmt))
	m := &a.memo[(key*0x9e3779b97f4a7c15)>>(64-edgeMemoBits)]
	head, ok := m.head-1, m.head != 0 && m.key == key
	if !ok {
		head, ok = a.byPair[key]
	}
	if ok {
		for i := head; i >= 0; i = a.next[i] {
			e := &a.edges[i]
			if e.Kind != kind || e.Carrier != carrier || e.Carried != carried {
				continue
			}
			if carried && distance > 0 && (e.Distance == 0 || distance < e.Distance) {
				e.Distance = distance
			}
			return
		}
	} else {
		head = -1
	}
	a.byPair[key] = int32(len(a.edges))
	m.key, m.head = key, int32(len(a.edges))+1
	a.next = append(a.next, head)
	a.edges = append(a.edges, Edge{
		Kind: kind, SrcStmt: int(src.stmt), DstStmt: int(dst.stmt),
		Carried: carried, Carrier: carrier, Reduction: reduction,
		Distance: distance,
	})
}

// carriedDistance returns the absolute iteration distance at index ci.
func carriedDistance(a, b []frameSnap, ci int) int64 {
	d := b[ci].iter - a[ci].iter
	if d < 0 {
		d = -d
	}
	return d
}

// Access implements interp.Tracer.
func (a *Analyzer) Access(acc *interp.Access) {
	c := a.cellAt(acc.Addr)
	// Array-ness travels via the Access (set by the interpreter for
	// subscripted instructions).
	rec := accessRec{
		stmt:   int32(acc.StmtID),
		red:    acc.Red,
		array:  acc.Array,
		frames: a.snapshot(acc.Frames),
	}

	// Every non-reduction access inside a loop poisons reduction locations.
	if acc.Red == ir.RedNone {
		for _, f := range rec.frames {
			if !c.ctrl.has(f.id) && !c.nonRed.has(f.id) {
				c.nonRed.add(f.id)
			}
		}
	}

	if !acc.Write {
		a.onRead(acc.Addr, c, &rec)
		a.pushRead(c, &rec)
		return
	}
	a.onWrite(acc.Addr, c, &rec)
	c.lastWrite, c.written = rec, true
	if c.nReads > 0 {
		// Splice the whole chain onto the free list.
		a.reads.at(c.tail).next = a.free
		a.free, c.nReads = c.head, 0
	}
}

// pushRead appends rec to c's read chain. A full chain drops its oldest
// read, whose node becomes the new tail.
func (a *Analyzer) pushRead(c *cell, rec *accessRec) {
	var n int32
	switch {
	case c.nReads >= maxReadsPerCell:
		n = c.head
		c.head = a.reads.at(n).next
		c.nReads--
	case a.free >= 0:
		n = a.free
		a.free = a.reads.at(n).next
	default:
		n = a.reads.add()
	}
	*a.reads.at(n) = readNode{rec: *rec}
	if c.nReads == 0 {
		c.head = n
	} else {
		a.reads.at(c.tail).next = n
	}
	c.tail = n
	c.nReads++
}

func (a *Analyzer) onRead(addr uint64, c *cell, rec *accessRec) {
	if !c.written {
		// Never written: exposed with respect to every enclosing loop.
		rec.exposed = ^uint64(0)
		return
	}
	w := &c.lastWrite
	ci := carrierIndex(w.frames, rec.frames)
	// Exposure per enclosing loop: the read is exposed w.r.t. loop level i
	// unless the last write happened in the same iteration of that loop.
	for i := range rec.frames {
		sameIter := i < len(w.frames) &&
			w.frames[i].instance == rec.frames[i].instance &&
			w.frames[i].iter == rec.frames[i].iter
		if !sameIter {
			rec.exposed |= 1 << uint(i)
		}
	}
	if ci < 0 {
		a.recordEdge(RAW, w, rec, 0, false, false, 0)
		return
	}
	loop := rec.frames[ci].id
	redPair := w.red != ir.RedNone && w.red == rec.red
	a.recordEdge(RAW, w, rec, loop, true, redPair, carriedDistance(w.frames, rec.frames, ci))
	if c.ctrl.has(loop) {
		return
	}
	ls := a.loop(loop)
	if redPair {
		if ls.rawRed == nil {
			ls.rawRed = map[uint64]ir.RedOp{}
		}
		ls.rawRed[addr] = rec.red
	} else {
		mark(&ls.rawBad, addr)
	}
}

func (a *Analyzer) onWrite(addr uint64, c *cell, rec *accessRec) {
	if c.written {
		w := &c.lastWrite
		ci := carrierIndex(w.frames, rec.frames)
		if ci < 0 {
			a.recordEdge(WAW, w, rec, 0, false, false, 0)
		} else {
			loop := rec.frames[ci].id
			redPair := w.red != ir.RedNone && w.red == rec.red
			a.recordEdge(WAW, w, rec, loop, true, redPair, carriedDistance(w.frames, rec.frames, ci))
			if !c.ctrl.has(loop) && !redPair && rec.array {
				// Carried output dependences on array elements change the
				// final memory image under parallel execution; scalars are
				// privatizable.
				mark(&a.loop(loop).wawArray, addr)
			}
		}
	}
	for i, n := int32(0), c.head; i < c.nReads; i++ {
		node := a.reads.at(n)
		r := &node.rec
		n = node.next
		ci := carrierIndex(r.frames, rec.frames)
		if ci < 0 {
			a.recordEdge(WAR, r, rec, 0, false, false, 0)
			continue
		}
		loop := rec.frames[ci].id
		redPair := r.red != ir.RedNone && r.red == rec.red
		a.recordEdge(WAR, r, rec, loop, true, redPair, carriedDistance(r.frames, rec.frames, ci))
		if c.ctrl.has(loop) || redPair {
			continue
		}
		if r.exposedAt(ci) {
			// The earlier iteration read a value the later iteration
			// overwrites, and that read was not satisfied by its own
			// iteration: privatization cannot remove this dependence.
			mark(&a.loop(loop).warBad, addr)
		}
	}
}

// Finalize computes the per-loop verdicts for every loop of prog; a loop
// that never executed has no evidence and so is parallelizable. The
// iteration and instance counts come from stats, the traced run's.
// Finalize ends the analysis: it sorts the analyzer's edges in place and
// hands them to the Result, so the analyzer must see no further access.
func (a *Analyzer) Finalize(prog *ir.Program, stats interp.Stats) *Result {
	res := &Result{
		Edges:      a.edges,
		Verdicts:   map[int]Verdict{},
		Iterations: loopCounts(stats.LoopIters),
		Instances:  loopCounts(stats.LoopEnter),
	}
	slices.SortFunc(res.Edges, func(ei, ej Edge) int {
		if c := cmp.Compare(ei.SrcStmt, ej.SrcStmt); c != 0 {
			return c
		}
		if c := cmp.Compare(ei.DstStmt, ej.DstStmt); c != 0 {
			return c
		}
		if c := cmp.Compare(ei.Kind, ej.Kind); c != 0 {
			return c
		}
		return cmp.Compare(ei.Carrier, ej.Carrier)
	})
	res.indexEdges()

	for _, id := range prog.LoopIDs() {
		v := Verdict{LoopID: id, Parallelizable: true}
		reason := func(format string, n int) {
			v.Parallelizable = false
			noun := "locations"
			if n == 1 {
				noun = "location"
			}
			v.Reasons = append(v.Reasons, fmt.Sprintf(format, n, noun))
		}
		var ls loopState
		if id >= 0 && id < len(a.loops) {
			ls = a.loops[id]
		}
		if n := len(ls.rawBad); n > 0 {
			v.Detail.LCRawBad = true
			reason("loop-carried RAW on %d %s", n)
		}
		if n := len(ls.warBad); n > 0 {
			v.Detail.LCWarBad = true
			reason("loop-carried WAR (exposed read) on %d %s", n)
		}
		if n := len(ls.wawArray); n > 0 {
			v.Detail.LCWawArray = true
			reason("loop-carried WAW on %d array %s", n)
		}
		poisoned := 0
		for addr := range ls.rawRed {
			v.Detail.HasRed = true
			if a.lookup(addr).nonRed.has(id) {
				poisoned++
			} else {
				v.HasReduction = true
			}
		}
		if poisoned > 0 {
			v.Detail.RedPoisoned = true
			reason("reduction accumulator read/written outside the reduction at %d %s", poisoned)
		}
		if !v.Parallelizable {
			v.HasReduction = false
		}
		sort.Strings(v.Reasons)
		res.Verdicts[id] = v
	}
	return res
}

// loopCounts turns per-loop-ID counts into a map holding the loops with a
// nonzero count.
func loopCounts(byID []int64) map[int]int64 {
	m := map[int]int64{}
	for id, n := range byID {
		if n != 0 {
			m[id] = n
		}
	}
	return m
}

// Analyze profiles prog's entry function and returns the dependence result
// together with the interpreter statistics. Execution budgets default per
// interp.Limits; pass interp.Limits{} for the pipeline-wide defaults. A
// done limits.Ctx aborts the profiled execution at the interpreter's
// instruction-stride check with an error wrapping both
// interp.ErrCancelled and the context's error.
func Analyze(prog *ir.Program, entry string, limits interp.Limits) (*Result, interp.Stats, error) {
	var span trace.Span
	limits.Ctx, span = trace.StartSpan(limits.Ctx, "deps.analyze")
	defer span.End()
	an := NewAnalyzer()
	stats, err := interp.New(prog, an, limits).Run(entry)
	if err != nil {
		return nil, stats, err
	}
	res := an.Finalize(prog, stats)
	recordResultStats(prog.Name, res)
	return res, stats, nil
}

// recordResultStats publishes one analysis' dependence-edge and verdict
// counts to the metrics registry.
func recordResultStats(program string, res *Result) {
	var raw, war, waw, carried int64
	for _, e := range res.Edges {
		switch e.Kind {
		case RAW:
			raw++
		case WAR:
			war++
		default:
			waw++
		}
		if e.Carried {
			carried++
		}
	}
	par, seq := 0, 0
	for _, v := range res.Verdicts {
		if v.Parallelizable {
			par++
		} else {
			seq++
		}
	}
	obs.GetCounter("mvpar_deps_analyses_total").Inc()
	obs.GetCounter("mvpar_deps_raw_edges_total").Add(raw)
	obs.GetCounter("mvpar_deps_war_edges_total").Add(war)
	obs.GetCounter("mvpar_deps_waw_edges_total").Add(waw)
	obs.GetCounter("mvpar_deps_carried_edges_total").Add(carried)
	obs.GetCounter("mvpar_deps_parallel_loops_total").Add(int64(par))
	obs.GetCounter("mvpar_deps_sequential_loops_total").Add(int64(seq))
	obs.Debug("deps.analyze", "program", program,
		"raw", raw, "war", war, "waw", waw, "carried", carried,
		"parallel", par, "sequential", seq)
}
