package minic

import (
	"context"
	"fmt"
	"strconv"

	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Parser is a recursive-descent parser for MiniC.
type Parser struct {
	toks   []Token
	pos    int
	loopID int
	depth  int
}

// maxParseDepth bounds statement/expression nesting so adversarial inputs
// (e.g. thousands of "(" or "-" in a row, found by fuzzing) return a parse
// error instead of exhausting the goroutine stack. Real MiniC programs
// nest a handful of levels; 512 is far beyond anything legitimate.
const maxParseDepth = 512

// enter guards one level of recursive descent; every enter that returns
// nil must be paired with leave.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("minic: line %d: nesting deeper than %d levels", p.cur().Line, maxParseDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Parse lexes and parses src into a Program named name.
func Parse(name, src string) (*Program, error) {
	_, span := trace.StartSpan(context.Background(), "minic.parse")
	defer span.End()
	toks, err := Lex(src)
	if err != nil {
		obs.GetCounter("mvpar_minic_parse_errors_total").Inc()
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &Program{Name: name}
	for !p.at(TokEOF, "") {
		if err := p.parseTopLevel(prog); err != nil {
			obs.GetCounter("mvpar_minic_parse_errors_total").Inc()
			return nil, err
		}
	}
	obs.GetCounter("mvpar_minic_parse_total").Inc()
	loops := len(prog.Loops())
	obs.GetCounter("mvpar_minic_loops_total").Add(int64(loops))
	obs.Debug("minic.parse", "program", name, "funcs", len(prog.Funcs), "loops", loops)
	return prog, nil
}

// MustParse parses src and panics on error; intended for the built-in
// benchmark corpus, where a parse failure is a programming bug.
func MustParse(name, src string) *Program {
	prog, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(kind TokenKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	return t, fmt.Errorf("minic: line %d: expected %s %q, found %s", t.Line, kindNames[kind], text, t)
}

func (p *Parser) parseType() (Type, bool) {
	switch {
	case p.accept(TokKeyword, "int"):
		return TypeInt, true
	case p.accept(TokKeyword, "float"):
		return TypeFloat, true
	case p.accept(TokKeyword, "void"):
		return TypeVoid, true
	}
	return TypeVoid, false
}

func (p *Parser) parseTopLevel(prog *Program) error {
	line := p.cur().Line
	typ, ok := p.parseType()
	if !ok {
		return fmt.Errorf("minic: line %d: expected type at top level, found %s", line, p.cur())
	}
	nameTok, err := p.expect(TokIdent, "")
	if err != nil {
		return err
	}
	if p.at(TokPunct, "(") {
		fn, err := p.parseFuncRest(typ, nameTok)
		if err != nil {
			return err
		}
		prog.Funcs = append(prog.Funcs, fn)
		return nil
	}
	decl, err := p.parseVarRest(typ, nameTok)
	if err != nil {
		return err
	}
	prog.Globals = append(prog.Globals, decl)
	return nil
}

// parseVarRest parses the declarator after "type name": optional array
// dims, optional scalar initializer, and the closing semicolon.
func (p *Parser) parseVarRest(typ Type, nameTok Token) (*VarDecl, error) {
	decl := &VarDecl{Name: nameTok.Text, Type: typ, Line: nameTok.Line}
	for p.accept(TokPunct, "[") {
		szTok, err := p.expect(TokIntLit, "")
		if err != nil {
			return nil, err
		}
		sz, err := strconv.Atoi(szTok.Text)
		if err != nil || sz <= 0 {
			return nil, fmt.Errorf("minic: line %d: bad array size %q", szTok.Line, szTok.Text)
		}
		decl.Dims = append(decl.Dims, sz)
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
	}
	if len(decl.Dims) > 2 {
		return nil, fmt.Errorf("minic: line %d: arrays of rank > 2 are not supported", nameTok.Line)
	}
	if p.accept(TokPunct, "=") {
		if decl.IsArray() {
			return nil, fmt.Errorf("minic: line %d: array initializers are not supported", nameTok.Line)
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		decl.Init = init
	}
	_, err := p.expect(TokPunct, ";")
	return decl, err
}

func (p *Parser) parseFuncRest(ret Type, nameTok Token) (*FuncDecl, error) {
	fn := &FuncDecl{Name: nameTok.Text, Ret: ret, Line: nameTok.Line}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	for !p.accept(TokPunct, ")") {
		if len(fn.Params) > 0 {
			if _, err := p.expect(TokPunct, ","); err != nil {
				return nil, err
			}
		}
		ptype, ok := p.parseType()
		if !ok || ptype == TypeVoid {
			return nil, fmt.Errorf("minic: line %d: expected parameter type", p.cur().Line)
		}
		pn, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		param := &VarDecl{Name: pn.Text, Type: ptype, Line: pn.Line}
		for p.accept(TokPunct, "[") {
			szTok, err := p.expect(TokIntLit, "")
			if err != nil {
				return nil, err
			}
			sz, _ := strconv.Atoi(szTok.Text)
			param.Dims = append(param.Dims, sz)
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
		}
		fn.Params = append(fn.Params, param)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	open, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Line: open.Line}
	for !p.accept(TokPunct, "}") {
		if p.at(TokEOF, "") {
			return nil, fmt.Errorf("minic: line %d: unterminated block", open.Line)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

// blockOf wraps a single statement as a block if needed, so loop and if
// bodies are always BlockStmt.
func blockOf(s Stmt, line int) *BlockStmt {
	if b, ok := s.(*BlockStmt); ok {
		return b
	}
	return &BlockStmt{Stmts: []Stmt{s}, Line: line}
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.at(TokPunct, "{"):
		return p.parseBlock()
	case p.at(TokKeyword, "for"):
		return p.parseFor()
	case p.at(TokKeyword, "while"):
		return p.parseWhile()
	case p.at(TokKeyword, "if"):
		return p.parseIf()
	case p.accept(TokKeyword, "return"):
		ret := &ReturnStmt{Line: t.Line}
		if !p.at(TokPunct, ";") {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ret.Value = v
		}
		_, err := p.expect(TokPunct, ";")
		return ret, err
	case p.at(TokKeyword, "int") || p.at(TokKeyword, "float"):
		typ, _ := p.parseType()
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		decl, err := p.parseVarRest(typ, nameTok)
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decl: decl}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(TokPunct, ";")
		return s, err
	}
}

// parseSimpleStmt parses an assignment, inc/dec, or call statement without
// the trailing semicolon (for-loop headers reuse it).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return nil, fmt.Errorf("minic: line %d: expected statement, found %s", t.Line, t)
	}
	// Call statement: ident '(' ...
	if p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == "(" {
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: x, Line: t.Line}, nil
	}
	lv, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	op := p.cur()
	switch op.Text {
	case "=", "+=", "-=", "*=", "/=", "%=":
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Target: lv, Op: op.Text, Value: v, Line: t.Line}, nil
	case "++", "--":
		p.next()
		binop := "+="
		if op.Text == "--" {
			binop = "-="
		}
		return &AssignStmt{Target: lv, Op: binop, Value: &IntLit{Value: 1, Line: t.Line}, Line: t.Line}, nil
	}
	return nil, fmt.Errorf("minic: line %d: expected assignment operator, found %s", op.Line, op)
}

func (p *Parser) parseLValue() (*LValue, error) {
	nameTok, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	lv := &LValue{Name: nameTok.Text, Line: nameTok.Line}
	for p.accept(TokPunct, "[") {
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		lv.Indices = append(lv.Indices, idx)
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
	}
	if len(lv.Indices) > 2 {
		return nil, fmt.Errorf("minic: line %d: arrays of rank > 2 are not supported", nameTok.Line)
	}
	return lv, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t, _ := p.expect(TokKeyword, "for")
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	loop := &ForStmt{Line: t.Line}
	p.loopID++
	loop.ID = p.loopID

	if !p.at(TokPunct, ";") {
		if p.at(TokKeyword, "int") || p.at(TokKeyword, "float") {
			typ, _ := p.parseType()
			nameTok, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			decl := &VarDecl{Name: nameTok.Text, Type: typ, Line: nameTok.Line}
			if _, err := p.expect(TokPunct, "="); err != nil {
				return nil, err
			}
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = init
			loop.Init = &DeclStmt{Decl: decl}
		} else {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			loop.Init = s
		}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		loop.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ")") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		loop.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	loop.Body = blockOf(body, t.Line)
	return loop, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t, _ := p.expect(TokKeyword, "while")
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.loopID++
	return &WhileStmt{ID: p.loopID, Cond: cond, Body: blockOf(body, t.Line), Line: t.Line}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t, _ := p.expect(TokKeyword, "if")
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	thenS, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	ifs := &IfStmt{Cond: cond, Then: blockOf(thenS, t.Line), Line: t.Line}
	if p.accept(TokKeyword, "else") {
		elseS, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		ifs.Else = blockOf(elseS, t.Line)
	}
	return ifs, nil
}

// Expression parsing with precedence climbing.

var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec, ok := binaryPrec[t.Text]
		if t.Kind != TokPunct || !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: t.Text, X: lhs, Y: rhs, Line: t.Line}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct && (t.Text == "-" || t.Text == "!") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Text, X: x, Line: t.Line}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokIntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("minic: line %d: bad int literal %q", t.Line, t.Text)
		}
		return &IntLit{Value: v, Line: t.Line}, nil
	case t.Kind == TokFloatLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("minic: line %d: bad float literal %q", t.Line, t.Text)
		}
		return &FloatLit{Value: v, Line: t.Line}, nil
	case t.Kind == TokIdent:
		p.next()
		if p.accept(TokPunct, "(") {
			call := &CallExpr{Name: t.Text, Line: t.Line}
			for !p.accept(TokPunct, ")") {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokPunct, ","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
		ref := &VarRef{Name: t.Text, Line: t.Line}
		for p.accept(TokPunct, "[") {
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ref.Indices = append(ref.Indices, idx)
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
		}
		if len(ref.Indices) > 2 {
			return nil, fmt.Errorf("minic: line %d: arrays of rank > 2 are not supported", t.Line)
		}
		return ref, nil
	case p.accept(TokPunct, "("):
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(TokPunct, ")")
		return x, err
	}
	return nil, fmt.Errorf("minic: line %d: expected expression, found %s", t.Line, t)
}
