package mvpar_test

// A guard against exported API that only its own tests call. Every
// exported top-level function and method declared in a non-test file
// under internal/ or cmd/ must be named by some other identifier in a
// non-test Go file of the repository (this module, the benchmark module
// or the examples). A name that only tests reach is code nothing runs:
// delete it with its tests, or, if it is a seam a remaining test needs,
// add it to testSeams with the reason.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams are exported names that no non-test code calls but that
// stay on purpose, one reason each.
var testSeams = map[string]string{
	"GlobalValue":      "interp: tests read a global's value after a run",
	"ApproxEqual":      "tensor: tests compare matrices within a tolerance",
	"Argsort":          "tensor: the reference ArgsortInto is tested against",
	"MatMulSerial":     "tensor: the reference the parallel MatMul is tested and benchmarked against",
	"SpMM":             "tensor: the float64 reference the CSR kernels are tested and benchmarked against",
	"Apply":            "tensor: builds the float64 expectations of the f32 and i8 tanh kernels",
	"FromRows":         "tensor: builds literal matrices in tests",
	"ForceDense":       "gnn: selects the dense path the sparse propagation is tested against",
	"TopoSort":         "graph: orders the condensation in the critical-path oracle of internal/features",
	"In":               "graph: the in-edge view the graph, PEG and model-graph oracles read",
	"InstrString":      "ir: renders the instruction a failing IR test names",
	"SetOutput":        "obs: tests capture the log stream",
	"SetTimestamps":    "obs: tests pin log timestamps",
	"CheckExposition":  "obs: tests validate /metrics output against the exposition format",
	"NewSequential":    "nn: tests build small models from layers",
	"ZeroGrads":        "nn: gradient checks clear accumulated gradients",
	"LoadParams":       "nn: serialization round-trip tests",
	"NewRNG":           "nn: seeded initialization in layer tests",
	"OracleSweep":      "core: bound by the root benchmarks",
	"ExportDataConfig": "core: bound by the root benchmarks",
	"ExtractAll":       "peg: bound by the root benchmarks",
	"RandomProgram":    "bench: the random-program generator the property tests use",
	"Int63":            "rand.Source method, called through the interface",
	// The int8 kernels' test scaffolding; it goes with the int8 engine.
	"QuantizeTensorInto":  "i8: the float64 reference QuantizeTensorF32Into is tested against",
	"QuantizeColsInto":    "i8: the float64 reference QuantizeColsF32Into is tested against",
	"QuantizeRowsF32Into": "i8: quantizes the operands of the int8 GEMM test",
	"DequantInto":         "i8: dequantizes the int8 GEMM test's result",
	"RequantRowsInto":     "i8: the unscaled case RequantRowsScaledInto generalizes, tested alone",
}

// sourceFiles returns every non-test .go file under root, skipping
// hidden directories, testdata and build outputs.
func sourceFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ name, where string }
	var decls []decl
	for _, path := range sourceFiles(t, ".") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) &&
			!strings.HasPrefix(path, "cmd"+string(filepath.Separator)) {
			continue
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			where := filepath.Dir(path) + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				where = filepath.Dir(path) + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{fn.Name.Name, where})
		}
	}
	var unused []string
	for _, d := range decls {
		if _, ok := testSeams[d.name]; ok {
			continue
		}
		// The declaration's own name is one occurrence.
		if uses[d.name] <= 1 {
			unused = append(unused, d.where)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code names it", u)
	}
	for name := range testSeams {
		if uses[name] == 0 {
			t.Errorf("testSeams lists %s, which no longer exists", name)
		}
	}
}

// recvName is the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
