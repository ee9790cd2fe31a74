// Package mvpar reproduces "Multi-View Learning for Parallelism Discovery
// of Sequential Programs" (Chen, Mahmud, Jannesari — IPDPSW 2022) as a
// self-contained Go library: a MiniC language and IR, an instrumenting
// interpreter with dynamic dependence analysis (the DiscoPoP phase-1
// substitute), computational-unit and program-execution-graph
// construction, inst2vec and anonymous-walk embeddings, a from-scratch
// DGCNN/MV-GNN stack, the paper's baselines and tool emulators, and an
// experiment harness regenerating every table and figure.
//
// The public surface lives under internal/core (Pipeline), with the
// command-line front end in cmd/mvpar (`mvpar experiments` regenerates
// the tables and figures). The
// benchmarks in bench_test.go regenerate each experiment; see DESIGN.md
// for the system inventory and EXPERIMENTS.md for measured results.
package mvpar
