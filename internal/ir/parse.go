package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse reads a module from the textual syntax produced by Print.
func Parse(src string) (*Module, error) {
	p := &parser{mod: NewModule()}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return p.mod, nil
}

// MustParse is Parse that panics on error; for tests and embedded IR.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	mod  *Module
	line int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ir: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// run splits the source into functions and parses each.
func (p *parser) run(src string) error {
	lines := strings.Split(src, "\n")
	i := 0
	for i < len(lines) {
		p.line = i + 1
		ln := stripComment(lines[i])
		if ln == "" {
			i++
			continue
		}
		switch {
		case strings.HasPrefix(ln, "builtin "):
			if err := p.parseBuiltin(ln); err != nil {
				return err
			}
			i++
		case strings.HasPrefix(ln, "func "):
			end := i + 1
			for end < len(lines) && stripComment(lines[end]) != "}" {
				end++
			}
			if end == len(lines) {
				return p.errf("unterminated function")
			}
			if err := p.parseFunc(lines[i:end], i); err != nil {
				return err
			}
			i = end + 1
		default:
			return p.errf("expected 'func' or 'builtin', got %q", ln)
		}
	}
	return nil
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, ';'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// parseBuiltin handles "builtin @name(t1, t2) ret".
func (p *parser) parseBuiltin(ln string) error {
	rest := strings.TrimPrefix(ln, "builtin ")
	name, sig, ok := cutSig(rest)
	if !ok {
		return p.errf("malformed builtin declaration %q", ln)
	}
	open := strings.IndexByte(sig, '(')
	close_ := strings.LastIndexByte(sig, ')')
	if open != 0 || close_ < 0 {
		return p.errf("malformed builtin signature %q", sig)
	}
	var ptypes []*Type
	for _, f := range splitArgs(sig[1:close_]) {
		t, err := ParseType(strings.TrimSpace(f))
		if err != nil {
			return p.errf("%v", err)
		}
		ptypes = append(ptypes, t)
	}
	ret, err := ParseType(strings.TrimSpace(sig[close_+1:]))
	if err != nil {
		return p.errf("%v", err)
	}
	if p.mod.FuncByName(name) != nil {
		return p.errf("duplicate function @%s", name)
	}
	p.mod.NewBuiltin(name, ret, ptypes...)
	return nil
}

// cutSig splits "@name(...)..." into the name and the remainder
// starting at '('.
func cutSig(s string) (name, rest string, ok bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "@") {
		return "", "", false
	}
	i := strings.IndexByte(s, '(')
	if i < 0 {
		return "", "", false
	}
	return s[1:i], s[i:], true
}

// splitArgs splits a comma-separated list at top level (no nesting in
// our syntax, so a plain split suffices after trimming).
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseFunc parses one function (lines[0] is the header; body follows).
func (p *parser) parseFunc(lines []string, base int) error {
	p.line = base + 1
	header := stripComment(lines[0])
	header = strings.TrimPrefix(header, "func ")
	header = strings.TrimSuffix(strings.TrimSpace(header), "{")
	name, sig, ok := cutSig(header)
	if !ok {
		return p.errf("malformed function header %q", header)
	}
	close_ := strings.LastIndexByte(sig, ')')
	if close_ < 0 {
		return p.errf("missing ')' in function header")
	}
	var pnames []string
	var ptypes []*Type
	for _, f := range splitArgs(sig[1:close_]) {
		sp := strings.Fields(f)
		if len(sp) != 2 || !strings.HasPrefix(sp[1], "%") {
			return p.errf("malformed parameter %q", f)
		}
		t, err := ParseType(sp[0])
		if err != nil {
			return p.errf("%v", err)
		}
		ptypes = append(ptypes, t)
		pnames = append(pnames, sp[1][1:])
	}
	ret, err := ParseType(strings.TrimSpace(sig[close_+1:]))
	if err != nil {
		return p.errf("%v", err)
	}
	if p.mod.FuncByName(name) != nil {
		return p.errf("duplicate function @%s", name)
	}
	fn := p.mod.NewFunc(name, ret, pnames, ptypes)

	// Pass 1: create blocks and instruction shells (names and types).
	vals := map[string]Value{}
	for _, prm := range fn.params {
		if _, dup := vals[prm.name]; dup {
			return p.errf("duplicate parameter %%%s", prm.name)
		}
		vals[prm.name] = prm
	}
	type pending struct {
		in   *Instr
		toks []string
		line int
	}
	var work []pending
	var cur *Block
	for li := 1; li < len(lines); li++ {
		p.line = base + li + 1
		ln := stripComment(lines[li])
		if ln == "" {
			continue
		}
		if label, ok := strings.CutSuffix(ln, ":"); ok {
			if label != "" && fn.BlockByName(label) != nil {
				return p.errf("duplicate block label %q", label)
			}
			cur = fn.NewBlock(label)
			continue
		}
		if cur == nil {
			return p.errf("instruction before first block label")
		}
		in, toks, err := p.instrShell(ln)
		if err != nil {
			return err
		}
		cur.Append(in)
		if in.HasResult() {
			if _, dup := vals[in.name]; dup {
				return p.errf("duplicate SSA name %%%s", in.name)
			}
			vals[in.name] = in
		}
		work = append(work, pending{in, toks, p.line})
	}

	// Pass 2: resolve operands now that all names and blocks exist.
	for _, w := range work {
		p.line = w.line
		if err := p.fillOperands(fn, w.in, w.toks, vals); err != nil {
			return err
		}
	}
	return nil
}

// instrShell creates an instruction with its opcode, name and type set,
// returning the raw tokens for operand resolution in pass 2.
func (p *parser) instrShell(ln string) (*Instr, []string, error) {
	var name string
	if strings.HasPrefix(ln, "%") {
		eq := strings.Index(ln, "=")
		if eq < 0 {
			return nil, nil, p.errf("missing '=' in %q", ln)
		}
		name = strings.TrimSpace(ln[1:eq])
		ln = strings.TrimSpace(ln[eq+1:])
	}
	toks := tokenize(ln)
	if len(toks) == 0 {
		return nil, nil, p.errf("empty instruction")
	}
	op, ok := opByName[toks[0]]
	if !ok {
		return nil, nil, p.errf("unknown opcode %q", toks[0])
	}
	if len(toks) < minTokens(op) {
		return nil, nil, p.errf("too few operands in %q", ln)
	}
	in := &Instr{op: op, typ: Void, name: name}
	switch op {
	case OpICmp, OpFCmp:
		in.typ = I1
	case OpLoad:
		pt, err := ParseType(toks[1])
		if err != nil || !pt.IsPtr() {
			return nil, nil, p.errf("load needs pointer type, got %q", toks[1])
		}
		in.typ = pt.Elem()
	case OpAlloca:
		et, err := ParseType(toks[1])
		if err != nil {
			return nil, nil, p.errf("%v", err)
		}
		n, err := strconv.ParseInt(toks[2], 10, 64)
		if err != nil {
			return nil, nil, p.errf("bad alloca count %q", toks[2])
		}
		in.typ = PtrTo(et)
		in.AllocElems = n
	case OpGEP:
		pt, err := ParseType(toks[1])
		if err != nil || !pt.IsPtr() {
			return nil, nil, p.errf("gep needs pointer type, got %q", toks[1])
		}
		in.typ = pt
	case OpAtomicRMW:
		in.typ = I64
	case OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI, OpPtrToInt, OpIntToPtr, OpBitcast:
		// "...<fromty> <val> to <toty>"
		if len(toks) < 5 || toks[len(toks)-2] != "to" {
			return nil, nil, p.errf("malformed cast %q", ln)
		}
		t, err := ParseType(toks[len(toks)-1])
		if err != nil {
			return nil, nil, p.errf("%v", err)
		}
		in.typ = t
	case OpPhi, OpSelect, OpCall:
		idx := 1
		if op == OpSelect {
			idx = 2 // select %cond, <ty> ...
		}
		t, err := ParseType(toks[idx])
		if err != nil {
			return nil, nil, p.errf("%v", err)
		}
		in.typ = t
	case OpStore, OpBr, OpCondBr, OpRet, OpTrap:
		// void
	default: // binary/logical: "<op> <ty> a, b"
		t, err := ParseType(toks[1])
		if err != nil {
			return nil, nil, p.errf("%v", err)
		}
		in.typ = t
	}
	return in, toks, nil
}

// minTokens is the fewest tokens an instruction of op is written
// with, its opcode included: instrShell rejects a shorter one, so every
// fixed token position instrShell and fillOperands read exists.
func minTokens(op Op) int {
	switch op {
	case OpBr, OpRet, OpTrap, OpPhi: // ret void; phi <ty>
		return 2
	case OpLoad, OpAlloca:
		return 3
	case OpICmp, OpFCmp, OpSelect, OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI, OpPtrToInt, OpIntToPtr, OpBitcast:
		return 5
	}
	// store, gep, atomicrmw, condbr, call <ty> @f (, and the binary
	// "<op> <ty> a, b".
	return 4
}

// addOperand resolves a reference token against vals with an expected
// type for constants, and wires def-use edges.
func (p *parser) addOperand(in *Instr, tok string, want *Type, vals map[string]Value) error {
	v, err := p.resolve(tok, want, vals)
	if err != nil {
		return err
	}
	in.operands = append(in.operands, v)
	if d, ok := v.(*Instr); ok {
		d.users = append(d.users, in)
	}
	return nil
}

func (p *parser) resolve(tok string, want *Type, vals map[string]Value) (Value, error) {
	if strings.HasPrefix(tok, "%") {
		v, ok := vals[tok[1:]]
		if !ok {
			return nil, p.errf("undefined value %s", tok)
		}
		return v, nil
	}
	if tok == "null" {
		if want == nil || !want.IsPtr() {
			return nil, p.errf("null constant needs pointer type")
		}
		return NullPtr(want), nil
	}
	if strings.HasPrefix(tok, "0xfp") {
		bits, err := strconv.ParseUint(tok[4:], 16, 64)
		if err != nil {
			return nil, p.errf("bad float bits %q", tok)
		}
		return ConstFloat(math.Float64frombits(bits)), nil
	}
	if want != nil && want.IsFloat() {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, p.errf("bad float constant %q", tok)
		}
		return ConstFloat(f), nil
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return nil, p.errf("bad integer constant %q", tok)
	}
	if want == nil {
		want = I64
	}
	if !want.IsInt() && !want.IsPtr() {
		return nil, p.errf("integer constant %q of type %s", tok, want)
	}
	return ConstInt(want, n), nil
}

func (p *parser) block(fn *Func, tok string) (*Block, error) {
	name := strings.TrimPrefix(tok, "%")
	b := fn.BlockByName(name)
	if b == nil {
		return nil, p.errf("undefined block %%%s", name)
	}
	return b, nil
}

// fillOperands completes an instruction shell from its tokens.
func (p *parser) fillOperands(fn *Func, in *Instr, toks []string, vals map[string]Value) error {
	switch in.op {
	case OpICmp, OpFCmp:
		pr, ok := predByName[toks[1]]
		if !ok {
			return p.errf("unknown predicate %q", toks[1])
		}
		in.Pred = pr
		t, err := ParseType(toks[2])
		if err != nil {
			return p.errf("%v", err)
		}
		if err := p.addOperand(in, toks[3], t, vals); err != nil {
			return err
		}
		return p.addOperand(in, toks[4], t, vals)
	case OpLoad:
		pt, _ := ParseType(toks[1])
		return p.addOperand(in, toks[2], pt, vals)
	case OpStore:
		vt, err := ParseType(toks[1])
		if err != nil {
			return p.errf("%v", err)
		}
		if err := p.addOperand(in, toks[2], vt, vals); err != nil {
			return err
		}
		return p.addOperand(in, toks[3], PtrTo(vt), vals)
	case OpAlloca:
		return nil
	case OpGEP, OpAtomicRMW:
		pt, _ := ParseType(toks[1])
		if err := p.addOperand(in, toks[2], pt, vals); err != nil {
			return err
		}
		return p.addOperand(in, toks[3], I64, vals)
	case OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI, OpPtrToInt, OpIntToPtr, OpBitcast:
		ft, err := ParseType(toks[1])
		if err != nil {
			return p.errf("%v", err)
		}
		return p.addOperand(in, toks[2], ft, vals)
	case OpPhi:
		// phi <ty> [v, %bb] [v, %bb] ... (commas removed by tokenizer)
		for i := 2; i < len(toks); i += 4 {
			if toks[i] != "[" || i+3 >= len(toks) {
				return p.errf("malformed phi at token %q", toks[i])
			}
			if err := p.addOperand(in, toks[i+1], in.typ, vals); err != nil {
				return err
			}
			b, err := p.block(fn, toks[i+2])
			if err != nil {
				return err
			}
			in.Incoming = append(in.Incoming, b)
			if toks[i+3] != "]" {
				return p.errf("malformed phi, expected ']'")
			}
		}
		return nil
	case OpSelect:
		if err := p.addOperand(in, toks[1], I1, vals); err != nil {
			return err
		}
		if err := p.addOperand(in, toks[3], in.typ, vals); err != nil {
			return err
		}
		return p.addOperand(in, toks[4], in.typ, vals)
	case OpCall:
		// call <ty> @name ( t a t a ... )
		cname := strings.TrimPrefix(toks[2], "@")
		callee := p.mod.FuncByName(cname)
		if callee == nil {
			return p.errf("undefined function @%s", cname)
		}
		in.Callee = callee
		if toks[3] != "(" {
			return p.errf("call @%s: expected '('", cname)
		}
		i := 4
		arg := 0
		for i < len(toks) && toks[i] != ")" {
			if i+1 == len(toks) {
				return p.errf("call @%s: argument %q has no value", cname, toks[i])
			}
			t, err := ParseType(toks[i])
			if err != nil {
				return p.errf("%v", err)
			}
			if err := p.addOperand(in, toks[i+1], t, vals); err != nil {
				return err
			}
			i += 2
			arg++
		}
		if arg != len(callee.Params()) {
			return p.errf("call @%s: want %d args, got %d", cname, len(callee.Params()), arg)
		}
		return nil
	case OpBr:
		b, err := p.block(fn, toks[1])
		if err != nil {
			return err
		}
		in.Targets = []*Block{b}
		return nil
	case OpCondBr:
		if err := p.addOperand(in, toks[1], I1, vals); err != nil {
			return err
		}
		t1, err := p.block(fn, toks[2])
		if err != nil {
			return err
		}
		t2, err := p.block(fn, toks[3])
		if err != nil {
			return err
		}
		in.Targets = []*Block{t1, t2}
		return nil
	case OpRet:
		if len(toks) == 2 && toks[1] == "void" {
			return nil
		}
		if len(toks) < 3 {
			return p.errf("ret needs 'void' or a typed value")
		}
		t, err := ParseType(toks[1])
		if err != nil {
			return p.errf("%v", err)
		}
		return p.addOperand(in, toks[2], t, vals)
	case OpTrap:
		return p.addOperand(in, toks[1], I64, vals)
	default: // binary/logical
		t := in.typ
		if err := p.addOperand(in, toks[2], t, vals); err != nil {
			return err
		}
		return p.addOperand(in, toks[3], t, vals)
	}
}

// tokenize splits an instruction body into tokens, treating commas and
// parentheses/brackets as separators ('[', ']', '(' and ')' are kept as
// standalone tokens).
func tokenize(s string) []string {
	var toks []string
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case ' ', '\t', ',':
			flush()
		case '(', ')', '[', ']':
			flush()
			toks = append(toks, string(c))
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return toks
}
