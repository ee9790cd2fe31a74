// Dataset generation: builds the labeled loop dataset the way the
// experiments do — the Table-II corpus plus transformed variants, IR
// optimization levels, oracle labels — and prints its composition. This
// is the "transformed dataset" construction of paper §IV-A.
//
// Run with: go run ./examples/dataset-generation
package main

import (
	"fmt"
	"log"
	"sort"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/inst2vec"
	"mvpar/internal/walks"
)

func main() {
	apps := append(bench.Corpus(), bench.TransformedCorpus(1)...)
	fmt.Printf("corpus: %d applications (14 Table-II apps + %d transformed)\n",
		len(apps), len(apps)-14)

	cfg := dataset.Config{
		Variants:   3, // IR optimization levels per program
		WalkParams: walks.Params{Length: 4, Gamma: 12},
		WalkLen:    4,
		EmbedCfg:   inst2vec.DefaultConfig,
		Seed:       1,
	}
	d, _, err := dataset.Build(apps, cfg)
	if err != nil {
		log.Fatal(err)
	}

	pos, neg := 0, 0
	bySuite := map[string][2]int{}
	for _, r := range d.Records {
		c := bySuite[r.Meta.Suite]
		if r.Label == 1 {
			pos++
			c[0]++
		} else {
			neg++
			c[1]++
		}
		bySuite[r.Meta.Suite] = c
	}
	fmt.Printf("\nrecords: %d  (parallelizable %d / sequential %d)\n", len(d.Records), pos, neg)
	fmt.Printf("inst2vec vocabulary: %d tokens, dim %d\n", d.Embedding.Vocab.Size(), d.Embedding.Dim)
	fmt.Printf("walk space: %d anonymous walk types (length <= %d)\n",
		d.Space.NumTypes(), d.Space.MaxLen)
	fmt.Printf("node-view feature dim: %d, struct-view dim: %d\n\n", d.NodeDim, d.StructDim)

	var suites []string
	for s := range bySuite {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	fmt.Printf("%-12s %-8s %-8s\n", "suite", "par", "seq")
	for _, s := range suites {
		c := bySuite[s]
		fmt.Printf("%-12s %-8d %-8d\n", s, c[0], c[1])
	}

	// The paper's balanced training construction: equal classes, then a
	// 75:25 split with no common loop objects.
	balanced := dataset.Balance(d.Records, 0, 1)
	train, test := dataset.Split(balanced, 0.75, 1)
	fmt.Printf("\nbalanced: %d records; split: %d train / %d test (no shared loops)\n",
		len(balanced), len(train), len(test))

	// Show a couple of concrete records, with the NCC baseline's token
	// streams, which Build leaves to AddBaselineInputs.
	fmt.Println("\nsample records:")
	if err := dataset.AddBaselineInputs(apps, d.Records[:3], cfg); err != nil {
		log.Fatal(err)
	}
	for _, r := range d.Records[:3] {
		fmt.Printf("  %s loop %d variant %d: label=%d, %d PEG nodes, %d tokens, N_Inst=%.0f iters=%.0f\n",
			r.Meta.Program, r.Meta.LoopID, r.Meta.Variant, r.Label,
			r.Sample.Node.N, len(r.Tokens), r.Static.NInst, r.Static.ExecTimes)
	}
}
