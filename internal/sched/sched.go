// Package sched simulates parallel execution of a loop on P workers with
// list scheduling over the measured iteration dependence DAG. It is the
// ground truth the ESP feature (the paper's Amdahl heuristic, Table I)
// approximates: where ESP guesses a speedup from critical-path length,
// the simulator actually schedules the loop's iterations respecting every
// cross-iteration dependence the profiler observed.
package sched

import (
	"fmt"
	"sort"

	"mvpar/internal/interp"
	"mvpar/internal/ir"
)

// IterationDAG is the cross-iteration dependence structure of one loop
// instance: nodes are iterations 0..N-1, an edge i -> j (i < j) means
// iteration j reads or overwrites state iteration i produced.
type IterationDAG struct {
	LoopID     int
	Iterations int
	// Preds[j] lists the iterations j depends on (sorted, deduplicated).
	Preds [][]int
	// Work[j] is the instruction count of iteration j.
	Work []int64
}

// dagBuilder is an interp.Tracer that records, per loop instance, which
// earlier iteration last touched each address, producing iteration-level
// dependence edges.
type dagBuilder struct {
	loopID int

	// Per address: last iteration (within the current instance) that
	// wrote it, and the iterations that read it since.
	lastWrite map[uint64]int64
	readers   map[uint64][]int64
	ctrl      map[uint64]bool

	instance int64
	active   bool
	curIter  int64
	work     map[int64]int64
	preds    map[int64]map[int64]bool
	iters    int64

	// Only the first dynamic instance of the loop is modeled.
	done bool
}

func newDagBuilder(loopID int) *dagBuilder {
	return &dagBuilder{
		loopID:    loopID,
		lastWrite: map[uint64]int64{},
		readers:   map[uint64][]int64{},
		ctrl:      map[uint64]bool{},
		work:      map[int64]int64{},
		preds:     map[int64]map[int64]bool{},
	}
}

// LoopEnter implements interp.Tracer.
func (b *dagBuilder) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	if id != b.loopID || b.done || b.active {
		return
	}
	b.active = true
	b.instance = instance
	b.curIter = 0
	if hasCtrl {
		b.ctrl[ctrlAddr] = true
	}
}

// LoopIter implements interp.Tracer.
func (b *dagBuilder) LoopIter(id int, instance, iter int64) {
	if b.active && id == b.loopID && instance == b.instance {
		b.curIter = iter
	}
}

// LoopExit implements interp.Tracer.
func (b *dagBuilder) LoopExit(id int, instance, iters int64) {
	if b.active && id == b.loopID && instance == b.instance {
		b.active = false
		b.done = true
		b.iters = iters
	}
}

func (b *dagBuilder) addPred(to, from int64) {
	if from == to || from < 0 {
		return
	}
	m := b.preds[to]
	if m == nil {
		m = map[int64]bool{}
		b.preds[to] = m
	}
	m[from] = true
}

// Access implements interp.Tracer.
func (b *dagBuilder) Access(a *interp.Access) {
	if !b.active || b.ctrl[a.Addr] {
		return
	}
	// Only accesses dynamically inside our loop instance count.
	inside := false
	for _, f := range a.Frames {
		if f.ID == b.loopID && f.Instance == b.instance {
			inside = true
			break
		}
	}
	if !inside {
		return
	}
	iter := b.curIter
	b.work[iter]++
	if a.Write {
		if prev, ok := b.lastWrite[a.Addr]; ok && prev != iter {
			b.addPred(iter, prev) // WAW ordering
		}
		for _, r := range b.readers[a.Addr] {
			if r != iter {
				b.addPred(iter, r) // WAR ordering
			}
		}
		b.lastWrite[a.Addr] = iter
		b.readers[a.Addr] = b.readers[a.Addr][:0]
		return
	}
	if prev, ok := b.lastWrite[a.Addr]; ok && prev != iter {
		b.addPred(iter, prev) // RAW ordering
	}
	rs := b.readers[a.Addr]
	if len(rs) == 0 || rs[len(rs)-1] != iter {
		b.readers[a.Addr] = append(rs, iter)
	}
}

// BuildDAG executes the program and extracts the iteration DAG of the
// first dynamic instance of loopID.
func BuildDAG(prog *ir.Program, entry string, loopID int, limits interp.Limits) (*IterationDAG, error) {
	if _, ok := prog.Loops[loopID]; !ok {
		return nil, fmt.Errorf("sched: no loop %d", loopID)
	}
	b := newDagBuilder(loopID)
	it := interp.New(prog, b, limits)
	if _, err := it.Run(entry); err != nil {
		return nil, err
	}
	if !b.done {
		return nil, fmt.Errorf("sched: loop %d never executed", loopID)
	}
	n := int(b.iters)
	dag := &IterationDAG{
		LoopID:     loopID,
		Iterations: n,
		Preds:      make([][]int, n),
		Work:       make([]int64, n),
	}
	for i := 0; i < n; i++ {
		dag.Work[i] = b.work[int64(i)]
		if dag.Work[i] == 0 {
			dag.Work[i] = 1
		}
		var ps []int
		for p := range b.preds[int64(i)] {
			if int(p) < n {
				ps = append(ps, int(p))
			}
		}
		sort.Ints(ps)
		dag.Preds[i] = ps
	}
	return dag, nil
}

// Result summarizes a simulated schedule.
type Result struct {
	Threads      int
	SerialTime   int64   // sum of all iteration work
	ParallelTime int64   // makespan under list scheduling
	Speedup      float64 // SerialTime / ParallelTime
}

// Simulate list-schedules the iteration DAG on the given number of
// workers: an iteration becomes ready when all its predecessors finished;
// ready iterations are assigned in index order to the earliest-free
// worker. Returns the achieved speedup.
func (d *IterationDAG) Simulate(threads int) Result {
	if threads < 1 {
		threads = 1
	}
	n := d.Iterations
	serial := int64(0)
	for _, w := range d.Work {
		serial += w
	}
	if n == 0 {
		return Result{Threads: threads, SerialTime: 0, ParallelTime: 0, Speedup: 1}
	}

	finish := make([]int64, n)
	workerFree := make([]int64, threads)
	// Iterations are scheduled in index order (the order a parallel-for
	// would hand them out); each starts at max(worker free, preds done).
	for i := 0; i < n; i++ {
		ready := int64(0)
		for _, p := range d.Preds[i] {
			if finish[p] > ready {
				ready = finish[p]
			}
		}
		// Earliest-free worker.
		w := 0
		for k := 1; k < threads; k++ {
			if workerFree[k] < workerFree[w] {
				w = k
			}
		}
		start := workerFree[w]
		if ready > start {
			start = ready
		}
		finish[i] = start + d.Work[i]
		workerFree[w] = finish[i]
	}
	makespan := int64(0)
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	speedup := 1.0
	if makespan > 0 {
		speedup = float64(serial) / float64(makespan)
	}
	return Result{Threads: threads, SerialTime: serial, ParallelTime: makespan, Speedup: speedup}
}
