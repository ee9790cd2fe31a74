// Package peg builds the Program Execution Graph (PEG) — the graph
// representation of code this work classifies. Nodes are computational
// units, loops and functions; edges are hierarchy (containment) plus the
// RAW/WAR/WAW data dependences measured by internal/deps. Each loop and
// the nodes within its dynamic extent form a sub-PEG, the unit of
// classification (paper §III-A, figure 5).
package peg

import (
	"context"
	"fmt"

	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/graph"
	"mvpar/internal/ir"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// NodeKind distinguishes PEG node types.
type NodeKind int

// PEG node kinds.
const (
	NodeCU NodeKind = iota
	NodeLoop
	NodeFunc
)

func (k NodeKind) String() string {
	switch k {
	case NodeCU:
		return "cu"
	case NodeLoop:
		return "loop"
	default:
		return "func"
	}
}

// Edge kinds used in the underlying graph. Dependence kinds are offset so
// a carried dependence is distinguishable from an independent one.
const (
	EdgeHierarchy = iota
	EdgeRAW
	EdgeWAR
	EdgeWAW
	EdgeRAWCarried
	EdgeWARCarried
	EdgeWAWCarried
)

// EdgeKindName names a PEG edge kind.
func EdgeKindName(k int) string {
	switch k {
	case EdgeHierarchy:
		return "child"
	case EdgeRAW:
		return "RAW"
	case EdgeWAR:
		return "WAR"
	case EdgeWAW:
		return "WAW"
	case EdgeRAWCarried:
		return "RAW*"
	case EdgeWARCarried:
		return "WAR*"
	case EdgeWAWCarried:
		return "WAW*"
	}
	return "?"
}

// DepEdgeKind maps a dependence to its PEG edge kind.
func DepEdgeKind(e deps.Edge) int {
	base := EdgeRAW
	switch e.Kind {
	case deps.WAR:
		base = EdgeWAR
	case deps.WAW:
		base = EdgeWAW
	}
	if e.Carried {
		base += EdgeRAWCarried - EdgeRAW
	}
	return base
}

// Node is one PEG node.
type Node struct {
	Kind   NodeKind
	CU     *cu.CU // when Kind == NodeCU
	LoopID int    // when Kind == NodeLoop
	Func   string // owning function (or the function itself for NodeFunc)
	Line   int
}

// Label renders a compact node label for DOT output.
func (n *Node) Label() string {
	switch n.Kind {
	case NodeCU:
		return fmt.Sprintf("cu%d@%d", n.CU.StmtID, n.Line)
	case NodeLoop:
		return fmt.Sprintf("loop%d@%d", n.LoopID, n.Line)
	default:
		return "fn:" + n.Func
	}
}

// PEG is a program execution graph.
type PEG struct {
	G     *graph.Directed
	Nodes []*Node

	ByStmt map[int]int // statement ID -> node index
	ByLoop map[int]int // loop ID -> node index
	ByFunc map[string]int

	CUs  *cu.Set
	Prog *ir.Program
}

// Build constructs the full-program PEG from the CU partition and the
// measured dependences.
func Build(prog *ir.Program, cus *cu.Set, result *deps.Result) *PEG {
	_, span := trace.StartSpan(context.Background(), "peg.build")
	defer span.End()
	p := &PEG{
		ByStmt: map[int]int{},
		ByLoop: map[int]int{},
		ByFunc: map[string]int{},
		CUs:    cus,
		Prog:   prog,
	}
	// Nodes: functions, then loops ascending, then CUs in CU order.
	loopIDs := cus.LoopIDs()
	nodes := make([]Node, 0, len(prog.Funcs)+len(loopIDs)+len(cus.CUs))
	for _, fn := range prog.Funcs {
		p.ByFunc[fn.Name] = len(nodes)
		nodes = append(nodes, Node{Kind: NodeFunc, Func: fn.Name})
	}
	for _, loopID := range loopIDs {
		meta := prog.Loops[loopID]
		p.ByLoop[loopID] = len(nodes)
		nodes = append(nodes, Node{Kind: NodeLoop, LoopID: loopID, Func: meta.Func, Line: meta.Line})
	}
	cuBase := len(nodes)
	for _, c := range cus.CUs {
		p.ByStmt[c.StmtID] = len(nodes)
		nodes = append(nodes, Node{Kind: NodeCU, CU: c, Func: c.Func, Line: c.Line})
	}
	p.Nodes = make([]*Node, len(nodes))
	for i := range nodes {
		p.Nodes[i] = &nodes[i]
	}

	// Hierarchy: function -> top-level loops and CUs; loop -> direct
	// children (nested loops and CUs).
	loopParent := map[int]int{} // loop -> parent loop (0 = function level)
	for _, loopID := range loopIDs {
		loopParent[loopID] = 0
	}
	for _, fn := range prog.Funcs {
		var stack []int
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin:
				if len(stack) > 0 {
					loopParent[int(in.LoopID)] = stack[len(stack)-1]
				}
				stack = append(stack, int(in.LoopID))
			case ir.OpLoopEnd:
				stack = stack[:len(stack)-1]
			}
		}
	}
	edges := make([]graph.Edge, 0, len(loopIDs)+len(cus.CUs)+len(result.Edges))
	for _, loopID := range loopIDs {
		meta := prog.Loops[loopID]
		from := p.ByFunc[meta.Func]
		if parent := loopParent[loopID]; parent != 0 {
			from = p.ByLoop[parent]
		}
		edges = append(edges, graph.Edge{From: from, To: p.ByLoop[loopID], Kind: EdgeHierarchy})
	}
	for i, c := range cus.CUs {
		from := p.ByFunc[c.Func]
		if c.LoopID != 0 {
			from = p.ByLoop[c.LoopID]
		}
		edges = append(edges, graph.Edge{From: from, To: cuBase + i, Kind: EdgeHierarchy})
	}

	// Dependence edges between CU nodes (self-dependences kept: a carried
	// self-edge is exactly what a recurrence looks like structurally), in
	// result.Edges order, each (source, target, kind) once. The edges are
	// sorted by source statement, so each CU's run is complete before the
	// next starts; taken[j] marks the kinds already taken into CU j from
	// the current source.
	taken := make([]uint8, len(cus.CUs))
	for i, c := range cus.CUs {
		out := result.EdgesFrom(c.StmtID)
		for k := range out {
			j := cus.Index(out[k].DstStmt)
			if j < 0 {
				continue
			}
			kind := DepEdgeKind(out[k])
			if bit := uint8(1) << kind; taken[j]&bit == 0 {
				taken[j] |= bit
				edges = append(edges, graph.Edge{From: cuBase + i, To: cuBase + j, Kind: kind})
			}
		}
		for k := range out {
			if j := cus.Index(out[k].DstStmt); j >= 0 {
				taken[j] = 0
			}
		}
	}
	p.G = graph.FromEdges(len(nodes), edges)
	obs.GetCounter("mvpar_peg_builds_total").Inc()
	obs.GetCounter("mvpar_peg_nodes_total").Add(int64(p.G.NumNodes()))
	obs.GetCounter("mvpar_peg_edges_total").Add(int64(p.G.NumEdges()))
	return p
}

// SubPEG is the classification unit: the loop node plus every node in the
// loop's dynamic extent, with induced edges.
type SubPEG struct {
	LoopID int
	G      *graph.Directed
	Nodes  []*Node // parallel to G's node IDs
	Root   int     // index of the loop node within Nodes
}

// Extract returns the sub-PEG of one loop: the loop node, the CUs of the
// loop's dynamic extent (including called functions), and the nodes of
// the loops whose static bodies overlap that extent, with all induced
// edges. It reads the CU set's region index, so its cost grows with the
// sub-PEG, not with the program.
func (p *PEG) Extract(loopID int) *SubPEG {
	stmts := p.CUs.LoopRegionStmts(loopID)
	loops := p.CUs.RegionLoops(loopID)
	ids := make([]int, 0, 1+len(loops)+len(stmts))
	ids = append(ids, p.ByLoop[loopID])
	for _, other := range loops {
		ids = append(ids, p.ByLoop[other])
	}
	// CU nodes follow the function and loop nodes in CU order.
	cuBase := len(p.Nodes) - len(p.CUs.CUs)
	for _, s := range stmts {
		if i := p.CUs.Index(s); i >= 0 {
			ids = append(ids, cuBase+i)
		}
	}
	sub, newToOld := p.G.Subgraph(ids)
	nodes := make([]*Node, len(newToOld))
	for i, old := range newToOld {
		nodes[i] = p.Nodes[old]
	}
	// The loop node comes first in ids, so it is node 0.
	return &SubPEG{LoopID: loopID, G: sub, Nodes: nodes, Root: 0}
}

// ExtractAll returns sub-PEGs for every loop, in loop-ID order.
func (p *PEG) ExtractAll() []*SubPEG {
	var out []*SubPEG
	for _, id := range p.CUs.LoopIDs() {
		out = append(out, p.Extract(id))
	}
	return out
}

// DOT renders the PEG in Graphviz format.
func (p *PEG) DOT(name string) string {
	return p.G.DOT(name,
		func(v int) string { return p.Nodes[v].Label() },
		func(e graph.Edge) string { return EdgeKindName(e.Kind) })
}

// DOT renders a sub-PEG in Graphviz format.
func (s *SubPEG) DOT(name string) string {
	return s.G.DOT(name,
		func(v int) string { return s.Nodes[v].Label() },
		func(e graph.Edge) string { return EdgeKindName(e.Kind) })
}
