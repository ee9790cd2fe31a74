package mvpar_test

// Guards against exported API that only its own tests reach: functions,
// methods and types here, struct fields in TestNoTestOnlyKnobs below.
// Every exported top-level function, method and type declared in a
// non-test file under internal/ or cmd/ must be named by some other
// identifier in a non-test Go file of the repository (this module, the
// benchmark module or the examples); a type's own method receivers do
// not count. A name that only tests reach is code nothing runs: delete
// it with its tests, or, if it is a seam a remaining test needs, add it
// to testSeams with the reason.

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
	"NewRNG":           "nn: seeded initialization in layer tests",
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
	receivers := map[string]int{} // methods declared on each type name
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
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && len(fn.Recv.List) == 1 {
				receivers[recvName(fn.Recv.List[0].Type)]++
			}
		}
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) &&
			!strings.HasPrefix(path, "cmd"+string(filepath.Separator)) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				where := filepath.Dir(path) + "." + d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					where = filepath.Dir(path) + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, decl{d.Name.Name, where})
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, s := range d.Specs {
					if ts := s.(*ast.TypeSpec); ts.Name.IsExported() {
						decls = append(decls, decl{ts.Name.Name, filepath.Dir(path) + "." + ts.Name.Name})
					}
				}
			}
		}
	}
	var unused []string
	for _, d := range decls {
		if _, ok := testSeams[d.name]; ok {
			continue
		}
		// The declaration's own name is one occurrence, and so is each
		// method receiver naming it (zero for a function's name).
		if uses[d.name]-receivers[d.name] <= 1 {
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

// knobSeams are exported struct fields that no non-test code writes but
// that stay on purpose, keyed package.Type.Field, one reason each.
var knobSeams = map[string]string{
	"core.ExperimentConfig.AppsOverride": "tests and the root benchmarks shrink the experiment corpus",
	"core.LoopPrediction.Degraded":       "always false; benchmark/check.go compares it, so it goes with the next benchmark change",
}

// TestNoTestOnlyKnobs is the export guard's counterpart for
// configuration: every exported field of an exported struct declared in
// a non-test file under internal/ or cmd/ must be written by some
// non-test Go file of the repository. A write is a composite-literal
// key, any selector in the target of an assignment or ++/--, or &x.F.
// A knob only tests set is a code path nothing runs: delete it with its
// tests, or, if it is a seam a remaining test needs, add it to
// knobSeams with the reason. Fields with struct tags are skipped:
// decoding sets them.
func TestNoTestOnlyKnobs(t *testing.T) {
	fset := token.NewFileSet()
	written := map[string]bool{}
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			written[x.Sel.Name] = true
			write(x.X)
		case *ast.IndexExpr:
			write(x.X)
		case *ast.StarExpr:
			write(x.X)
		case *ast.ParenExpr:
			write(x.X)
		}
	}
	type field struct{ name, where string }
	var fields []field
	for _, path := range sourceFiles(t, ".") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					written[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					write(x.X)
				}
			}
			return true
		})
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) &&
			!strings.HasPrefix(path, "cmd"+string(filepath.Separator)) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				for _, fl := range st.Fields.List {
					if fl.Tag != nil {
						continue
					}
					for _, id := range fl.Names {
						if id.IsExported() {
							where := filepath.Base(filepath.Dir(path)) + "." + ts.Name.Name + "." + id.Name
							fields = append(fields, field{id.Name, where})
						}
					}
				}
			}
		}
	}
	unwritten := map[string]bool{}
	var knobs []string
	for _, fl := range fields {
		if written[fl.name] {
			continue
		}
		unwritten[fl.where] = true
		if _, ok := knobSeams[fl.where]; !ok {
			knobs = append(knobs, fl.where)
		}
	}
	sort.Strings(knobs)
	for _, k := range knobs {
		t.Errorf("%s is an exported field that no non-test code writes", k)
	}
	for where := range knobSeams {
		if !unwritten[where] {
			t.Errorf("knobSeams lists %s, which is gone or written outside tests", where)
		}
	}
}
