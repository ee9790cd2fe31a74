package mvpar_test

// Guards the command lines the docs show against the CLI they describe:
// every `mvpar …` command line in README.md, DESIGN.md, EXPERIMENTS.md
// and docs/*.md, in a fenced block or an inline code span, must name a
// subcommand that cmd/mvpar's main dispatches and only flags that main
// (before the subcommand) or that subcommand's flag set defines. A change
// that deletes a subcommand or a flag then cannot leave a dead example
// behind.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// cliFlags maps a flag name to whether it is boolean (takes no value).
type cliFlags map[string]bool

// mvparCLI is the command surface of cmd/mvpar: the global flags and,
// per subcommand, its flags (nil for a subcommand without a flag set).
type mvparCLI struct {
	global cliFlags
	sub    map[string]cliFlags
}

// flagName returns the flag a flag-defining call names and whether it is
// boolean: fs.Bool("quick", …), flag.Duration("timeout", …).
func flagName(call *ast.CallExpr) (name string, isBool, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Bool", "String", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration":
	default:
		return "", false, false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false, false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, sel.Sel.Name == "Bool", err == nil
}

// parseMvparCLI reads the subcommands and flags out of cmd/mvpar's
// non-test sources: the string cases of main's switch are the
// subcommands, the flag.* calls in main are the global flags, and every
// function that builds flag.NewFlagSet(name, …) defines subcommand name's
// flags.
func parseMvparCLI(t *testing.T) mvparCLI {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("cmd", "mvpar", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var decls []ast.Decl
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		decls = append(decls, f.Decls...)
	}
	cli := mvparCLI{global: cliFlags{}, sub: map[string]cliFlags{}}
	for _, decl := range decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		isMain := fn.Name.Name == "main"
		flags := cliFlags{}
		setName := ""
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, e := range n.List {
					if lit, ok := e.(*ast.BasicLit); ok && isMain && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						if _, seen := cli.sub[name]; !seen {
							cli.sub[name] = nil
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "flag" && sel.Sel.Name == "NewFlagSet" {
					if lit, ok := n.Args[0].(*ast.BasicLit); ok {
						setName, _ = strconv.Unquote(lit.Value)
					}
					return true
				}
				if name, isBool, ok := flagName(n); ok {
					flags[name] = isBool
				}
			}
			return true
		})
		switch {
		case isMain:
			cli.global = flags
		case setName != "":
			cli.sub[setName] = flags
		}
	}
	if len(cli.sub) == 0 || len(cli.global) == 0 {
		t.Fatalf("found %d subcommands and %d global flags in cmd/mvpar", len(cli.sub), len(cli.global))
	}
	return cli
}

// flagToken reports whether tok (brackets stripped) is a flag, and its
// name and inline value presence: "-addr", "--timeout=30s", "[-quick]".
func flagToken(tok string) (name string, inline, ok bool) {
	tok = strings.Trim(tok, "[]")
	if len(tok) < 2 || tok[0] != '-' {
		return "", false, false
	}
	tok = strings.TrimPrefix(strings.TrimPrefix(tok, "-"), "-")
	if tok == "" || !(tok[0] >= 'a' && tok[0] <= 'z' || tok[0] >= 'A' && tok[0] <= 'Z') {
		return "", false, false // "-1", "--"
	}
	name, _, inline = strings.Cut(tok, "=")
	return name, inline, true
}

// check validates one command line's arguments (what follows "mvpar").
func (cli mvparCLI) check(args []string) error {
	i := 0
	// Global flags, up to the subcommand.
	for ; i < len(args); i++ {
		name, inline, ok := flagToken(args[i])
		if !ok {
			break
		}
		isBool, known := cli.global[name]
		if !known && name != "h" && name != "help" {
			return fmt.Errorf("mvpar defines no global flag -%s", name)
		}
		if known && !isBool && !inline {
			i++
		}
	}
	if i == len(args) || strings.HasPrefix(args[i], "<") || strings.HasPrefix(args[i], "[") ||
		strings.HasPrefix(args[i], "...") || strings.HasPrefix(args[i], "…") {
		return nil // no subcommand, or a placeholder for one
	}
	cmd := args[i]
	flags, known := cli.sub[cmd]
	if !known {
		return fmt.Errorf("mvpar has no subcommand %q", cmd)
	}
	for i++; i < len(args); i++ {
		name, inline, ok := flagToken(args[i])
		if !ok {
			continue // a positional argument or a placeholder
		}
		isBool, known := flags[name]
		if !known && name != "h" && name != "help" {
			return fmt.Errorf("mvpar %s defines no flag -%s", cmd, name)
		}
		if known && !isBool && !inline {
			i++
		}
	}
	return nil
}

// docCommand is one mvpar invocation found in a document.
type docCommand struct {
	line int
	text string
	args []string
}

// inlineCode matches one inline code span; it may wrap across lines.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// docCommands returns every mvpar invocation in a markdown document:
// lines of fenced code blocks (a line ending in "\" or an indented line
// opening with "-" or "[" continues the one before) and inline code
// spans.
func docCommands(doc string) []docCommand {
	type snippet struct {
		line int
		text string
	}
	var snippets []snippet
	var prose strings.Builder // the document with fenced blocks blanked
	inFence := false
	for n, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			prose.WriteString("\n")
			continue
		}
		if !inFence {
			prose.WriteString(line + "\n")
			continue
		}
		prose.WriteString("\n")
		if k := len(snippets) - 1; k >= 0 &&
			(strings.HasSuffix(snippets[k].text, "\\") ||
				line != trimmed && (strings.HasPrefix(trimmed, "-") || strings.HasPrefix(trimmed, "["))) {
			snippets[k].text = strings.TrimSuffix(snippets[k].text, "\\") + " " + trimmed
			continue
		}
		snippets = append(snippets, snippet{n + 1, trimmed})
	}
	text := prose.String()
	for _, m := range inlineCode.FindAllStringSubmatchIndex(text, -1) {
		line := strings.Count(text[:m[0]], "\n") + 1
		snippets = append(snippets, snippet{line, strings.ReplaceAll(text[m[2]:m[3]], "\n", " ")})
	}

	var out []docCommand
	sep := regexp.MustCompile(`\|\||&&|[|;&]`)
	for _, sn := range snippets {
		for _, part := range sep.Split(sn.text, -1) {
			args := mvparArgs(strings.Fields(part))
			if args != nil {
				out = append(out, docCommand{sn.line, strings.TrimSpace(part), args})
			}
		}
	}
	return out
}

// mvparArgs returns the arguments of an mvpar invocation (the binary by
// name or path, or `go run ./cmd/mvpar`), cut at a comment or a
// redirection, or nil when the words do not invoke mvpar.
func mvparArgs(words []string) []string {
	for len(words) > 0 && (words[0] == "$" || strings.Contains(words[0], "=") && !strings.HasPrefix(words[0], "-")) {
		words = words[1:] // a prompt or an environment assignment
	}
	switch {
	case len(words) >= 3 && words[0] == "go" && words[1] == "run" && strings.HasSuffix(words[2], "cmd/mvpar"):
		words = words[3:]
	case len(words) >= 1 && (words[0] == "mvpar" || strings.HasSuffix(words[0], "/mvpar")):
		words = words[1:]
	default:
		return nil
	}
	args := []string{}
	for _, w := range words {
		if strings.HasPrefix(w, "#") || strings.HasPrefix(w, ">") || strings.HasPrefix(w, "2>") || w == "<" {
			break
		}
		args = append(args, w)
	}
	return args
}

func TestDocsCommandLinesNameLiveFlags(t *testing.T) {
	cli := parseMvparCLI(t)
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for _, path := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The experiment harness is `mvpar experiments`; no second
		// binary is left to point at.
		for n, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "cmd/experiments") {
				t.Errorf("%s:%d: names cmd/experiments, which is `mvpar experiments`", path, n+1)
			}
		}
		for _, c := range docCommands(string(data)) {
			checked++
			if err := cli.check(c.args); err != nil {
				t.Errorf("%s:%d: `%s`: %v", path, c.line, c.text, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no mvpar command line in the docs")
	}
}

// TestDocsCommandLineCheck pins the checker itself on lines it must
// accept and lines it must reject.
func TestDocsCommandLineCheck(t *testing.T) {
	cli := parseMvparCLI(t)
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{"mvpar -pprof localhost:6060 serve -addr :8080 -trace-slow 250ms", true},
		{"go run ./cmd/mvpar -jobs 4 dataset -out f.json", true},
		{"mvpar --timeout=30s train -quick -model m.bin", true},
		{"mvpar serve [-addr :8080] [-model FILE] [-quick]", true},
		{"mvpar oracle path/to/program.mc", true},
		{"mvpar serve -h", true},
		{"mvpar parity -precision float32", false},
		{"mvpar serve -trace-ring 64", false},
		{"mvpar -cache-size 8 serve", false},
		{"mvpar experiments -quick -table 3", true},
		{"mvpar experiments -bogus", false},
		{"mvpar serve -workers 2", false},
	} {
		cmds := docCommands("```\n" + tc.line + "\n```\n")
		if len(cmds) != 1 {
			t.Fatalf("%q: found %d commands, want 1", tc.line, len(cmds))
		}
		if err := cli.check(cmds[0].args); (err == nil) != tc.ok {
			t.Errorf("%q: check = %v, want ok=%v", tc.line, err, tc.ok)
		}
	}
}
