package core

import (
	"fmt"

	"mvpar/internal/dataset"
	"mvpar/internal/eval"
	"mvpar/internal/gnn"
)

// This file implements the paper's first future-work item (§V): refining
// the binary parallelizable/non-parallelizable output into distinct
// parallel patterns — sequential, DoALL, and reduction — so downstream
// code generators can choose the right OpenMP construct.

// PatternResult summarizes the three-way pattern classification.
type PatternResult struct {
	Accuracy float64
	// PerClass[i] is the recall of pattern class i (dataset.PatternNames).
	PerClass []float64
	// Confusion[i][j] counts true class i predicted as j.
	Confusion [][]int
	Train     int
	Test      int
}

// RunPatternExperiment trains a three-class MV-GNN on the oracle's
// pattern labels and evaluates on held-out loop objects.
func RunPatternExperiment(cfg ExperimentConfig) (*PatternResult, error) {
	d, _, err := dataset.Build(cfg.corpus(), cfg.dataConfig())
	if err != nil {
		return nil, err
	}
	train, test := dataset.Split(d.Records, 0.75, cfg.Seed)
	train = dataset.BalanceByPattern(train, cfg.PerClass, cfg.Seed)

	mv := gnn.NewMVGNNClasses(d.NodeDim, d.StructDim, dataset.NumPatterns, cfg.Seed)
	mv.Train(dataset.PatternSamples(train), cfg.trainConfig(), EpochHook("patterns"))
	label := mv.Predictor().Labeler(gnn.ViewTrained)

	res := &PatternResult{
		PerClass:  make([]float64, dataset.NumPatterns),
		Confusion: make([][]int, dataset.NumPatterns),
		Train:     len(train),
		Test:      len(test),
	}
	for i := range res.Confusion {
		res.Confusion[i] = make([]int, dataset.NumPatterns)
	}
	correct := 0
	classTotals := make([]int, dataset.NumPatterns)
	for _, r := range test {
		s := r.Sample
		s.Label = r.Pattern
		pred := label(s)
		res.Confusion[r.Pattern][pred]++
		classTotals[r.Pattern]++
		if pred == r.Pattern {
			correct++
		}
	}
	if len(test) > 0 {
		res.Accuracy = float64(correct) / float64(len(test))
	}
	for c := 0; c < dataset.NumPatterns; c++ {
		if classTotals[c] > 0 {
			res.PerClass[c] = float64(res.Confusion[c][c]) / float64(classTotals[c])
		}
	}
	return res, nil
}

// RenderPatterns formats the pattern-classification result.
func RenderPatterns(r *PatternResult) string {
	t := eval.Table{
		Title:   "Extension: parallel-pattern classification (sequential / DoALL / reduction)",
		Headers: append([]string{"true \\ predicted"}, dataset.PatternNames...),
	}
	for i, name := range dataset.PatternNames {
		row := []string{name}
		for j := range dataset.PatternNames {
			row = append(row, fmt.Sprintf("%d", r.Confusion[i][j]))
		}
		t.AddRow(row...)
	}
	out := t.String()
	out += fmt.Sprintf("overall accuracy: %s%%   per-class recall:", eval.Pct(r.Accuracy))
	for i, name := range dataset.PatternNames {
		out += fmt.Sprintf("  %s %s%%", name, eval.Pct(r.PerClass[i]))
	}
	out += fmt.Sprintf("\n(train %d balanced records, test %d held-out records)\n", r.Train, r.Test)
	return out
}
