package cu

import "sort"

// The region computation Build's index replaced, kept as the oracle the
// index is checked against.

// ReachableFuncs returns every function reachable from the given set of
// callees, following the static call graph (including the roots).
func (s *Set) ReachableFuncs(roots []string) []string {
	seen := map[string]bool{}
	var order []string
	var visit func(f string)
	visit = func(f string) {
		if seen[f] {
			return
		}
		seen[f] = true
		order = append(order, f)
		var callees []string
		for c := range s.Calls[f] {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		for _, c := range callees {
			visit(c)
		}
	}
	sort.Strings(roots)
	for _, r := range roots {
		visit(r)
	}
	return order
}

// OracleRegionStmts is the former LoopRegionStmts: the statement IDs of
// the loop's static body plus the bodies of every function reachable
// from calls inside it, sorted and deduplicated.
func (s *Set) OracleRegionStmts(loopID int) []int {
	body := s.LoopStmts[loopID]
	var roots []string
	for _, stmt := range body {
		if c := s.ByStmt[stmt]; c != nil && c.HasCall {
			roots = append(roots, c.Callees...)
		}
	}
	stmts := append([]int(nil), body...)
	for _, fn := range s.ReachableFuncs(roots) {
		stmts = append(stmts, s.FuncStmts[fn]...)
	}
	sort.Ints(stmts)
	// Deduplicate (a function may be reachable through several calls).
	out := stmts[:0]
	for i, v := range stmts {
		if i == 0 || v != stmts[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// OracleRegionLoops is the former per-loop scans over every other loop:
// the loops whose static body overlaps the region ascending (peg.Extract)
// and how many lie wholly inside it (features.ExtractStatic).
func (s *Set) OracleRegionLoops(loopIDs []int, loopID int) (overlap []int, inner int) {
	inRegion := map[int]bool{}
	for _, st := range s.OracleRegionStmts(loopID) {
		inRegion[st] = true
	}
	for _, other := range loopIDs {
		if other == loopID {
			continue
		}
		stmts := s.LoopStmts[other]
		any, all := false, len(stmts) > 0
		for _, st := range stmts {
			if inRegion[st] {
				any = true
			} else {
				all = false
			}
		}
		if any {
			overlap = append(overlap, other)
		}
		if all {
			inner++
		}
	}
	return overlap, inner
}
