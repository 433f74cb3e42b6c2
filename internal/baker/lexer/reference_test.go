package lexer

// The reference scan the operator switch is checked against: the lexer as
// it was before PR 21, operators matched through per-call map literals.

import (
	"fmt"

	"shangrila/internal/baker/token"
)

// DiffScan describes the first difference between ScanAll and the
// reference scan of src — token for token (Kind, Lit, Pos), error for error
// (Pos, Msg) — or returns "" and the token count. It is exported to the
// external test package, which may import apps and bakergen; this one
// cannot, they import the lexer.
func DiffScan(file, src string) (diff string, tokens int) {
	got, gotErrs := ScanAll(file, src)
	want, wantErrs := refScanAll(file, src)
	if len(got) != len(want) || len(gotErrs) != len(wantErrs) {
		return fmt.Sprintf("%d tokens %d errors, reference %d tokens %d errors",
			len(got), len(gotErrs), len(want), len(wantErrs)), 0
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("token %d: got %v at %v, reference %v at %v",
				i, got[i], got[i].Pos, want[i], want[i].Pos), 0
		}
	}
	for i := range wantErrs {
		if *gotErrs[i] != *wantErrs[i] {
			return fmt.Sprintf("error %d: got %v, reference %v", i, gotErrs[i], wantErrs[i]), 0
		}
	}
	return "", len(got)
}

// refScanAll is ScanAll over the reference scanner.
func refScanAll(file, src string) ([]token.Token, []*Error) {
	l := New(file, src)
	var toks []token.Token
	for {
		t := l.refNext()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.Errors()
		}
	}
}

// refNext is Next dispatching operators to refScanOperator.
func (l *Lexer) refNext() token.Token {
	for {
		l.skipSpace()
		if l.off >= len(l.src) {
			return token.Token{Kind: token.EOF, Pos: l.pos()}
		}
		if l.peek() == '/' && l.peek2() == '/' {
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		if l.peek() == '/' && l.peek2() == '*' {
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
			continue
		}
		break
	}

	pos := l.pos()
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		return token.Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}
	case isDigit(c):
		return l.scanNumber(pos)
	case c == '"':
		return l.scanString(pos)
	}
	return l.refScanOperator(pos)
}

// refScanOperator is the pre-PR-21 scanOperator, verbatim: it matches
// three-character operators, then two-character, then singles, building
// both lookup maps on every call.
func (l *Lexer) refScanOperator(pos token.Pos) token.Token {
	three := ""
	if l.off+3 <= len(l.src) {
		three = l.src[l.off : l.off+3]
	}
	switch three {
	case "<<=":
		l.advanceN(3)
		return token.Token{Kind: token.SHL_ASSIGN, Pos: pos}
	case ">>=":
		l.advanceN(3)
		return token.Token{Kind: token.SHR_ASSIGN, Pos: pos}
	}
	two := ""
	if l.off+2 <= len(l.src) {
		two = l.src[l.off : l.off+2]
	}
	twoKinds := map[string]token.Kind{
		"<<": token.SHL, ">>": token.SHR, "&&": token.LAND, "||": token.LOR,
		"==": token.EQL, "!=": token.NEQ, "<=": token.LEQ, ">=": token.GEQ,
		"+=": token.ADD_ASSIGN, "-=": token.SUB_ASSIGN, "*=": token.MUL_ASSIGN,
		"/=": token.QUO_ASSIGN, "%=": token.REM_ASSIGN, "&=": token.AND_ASSIGN,
		"|=": token.OR_ASSIGN, "^=": token.XOR_ASSIGN,
		"->": token.ARROW, "++": token.INC, "--": token.DEC,
	}
	if k, ok := twoKinds[two]; ok {
		l.advanceN(2)
		return token.Token{Kind: k, Pos: pos}
	}
	oneKinds := map[byte]token.Kind{
		'+': token.ADD, '-': token.SUB, '*': token.MUL, '/': token.QUO,
		'%': token.REM, '&': token.AND, '|': token.OR, '^': token.XOR,
		'~': token.NOT, '!': token.LNOT, '<': token.LSS, '>': token.GTR,
		'=': token.ASSIGN, '(': token.LPAREN, ')': token.RPAREN,
		'{': token.LBRACE, '}': token.RBRACE, '[': token.LBRACK,
		']': token.RBRACK, ',': token.COMMA, ';': token.SEMI,
		':': token.COLON, '.': token.DOT, '?': token.QUEST,
	}
	c := l.advance()
	if k, ok := oneKinds[c]; ok {
		return token.Token{Kind: k, Pos: pos}
	}
	l.errorf(pos, "illegal character %q", c)
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}

func (l *Lexer) advanceN(n int) {
	for i := 0; i < n; i++ {
		l.advance()
	}
}
