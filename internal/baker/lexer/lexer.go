// Package lexer turns Baker source text into a stream of tokens.
package lexer

import (
	"fmt"
	"strings"

	"shangrila/internal/baker/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans Baker source. Create one with New; comments are skipped.
type Lexer struct {
	file string
	src  string
	off  int // byte offset of the next unread character
	line int
	col  int
	errs []*Error
}

// New returns a Lexer over src; file names positions in diagnostics.
func New(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func isLetter(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Next returns the next token, skipping whitespace and comments. At end of
// input it returns an EOF token forever.
func (l *Lexer) Next() token.Token {
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
	return l.scanOperator(pos)
}

func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		switch l.peek() {
		case ' ', '\t', '\r', '\n':
			l.advance()
		default:
			return
		}
	}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			l.errorf(pos, "malformed hex literal")
		}
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	lit := l.src[start:l.off]
	if l.off < len(l.src) && isLetter(l.peek()) {
		l.errorf(pos, "identifier immediately follows number %q", lit)
	}
	return token.Token{Kind: token.INT, Lit: lit, Pos: pos}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' && l.off < len(l.src) {
			esc := l.advance()
			switch esc {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '\\', '"':
				c = esc
			default:
				l.errorf(pos, "unknown escape \\%c", esc)
				c = esc
			}
		}
		b.WriteByte(c)
	}
	return token.Token{Kind: token.STRING, Lit: b.String(), Pos: pos}
}

// Operator tables, indexed by an operator's first byte; ILLEGAL (the zero
// Kind) marks no such operator. single is the byte alone, doubled the byte
// twice, doubledEq that followed by '=', withEq the byte followed by '='.
var (
	single = [128]token.Kind{
		'+': token.ADD, '-': token.SUB, '*': token.MUL, '/': token.QUO,
		'%': token.REM, '&': token.AND, '|': token.OR, '^': token.XOR,
		'~': token.NOT, '!': token.LNOT, '<': token.LSS, '>': token.GTR,
		'=': token.ASSIGN, '(': token.LPAREN, ')': token.RPAREN,
		'{': token.LBRACE, '}': token.RBRACE, '[': token.LBRACK,
		']': token.RBRACK, ',': token.COMMA, ';': token.SEMI,
		':': token.COLON, '.': token.DOT, '?': token.QUEST,
	}
	doubled = [128]token.Kind{
		'<': token.SHL, '>': token.SHR, '&': token.LAND, '|': token.LOR,
		'+': token.INC, '-': token.DEC, '=': token.EQL,
	}
	doubledEq = [128]token.Kind{'<': token.SHL_ASSIGN, '>': token.SHR_ASSIGN}
	withEq    = [128]token.Kind{
		'!': token.NEQ, '<': token.LEQ, '>': token.GEQ,
		'+': token.ADD_ASSIGN, '-': token.SUB_ASSIGN, '*': token.MUL_ASSIGN,
		'/': token.QUO_ASSIGN, '%': token.REM_ASSIGN, '&': token.AND_ASSIGN,
		'|': token.OR_ASSIGN, '^': token.XOR_ASSIGN,
	}
)

// scanOperator matches the longest operator at the cursor: its first byte
// selects the table rows, the next one or two bytes the column.
func (l *Lexer) scanOperator(pos token.Pos) token.Token {
	c := l.advance()
	if c >= 128 || single[c] == token.ILLEGAL {
		l.errorf(pos, "illegal character %q", c)
		return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
	}
	k := single[c]
	switch n := l.peek(); {
	case n == c && doubled[c] != token.ILLEGAL:
		l.advance()
		k = doubled[c]
		if l.peek() == '=' && doubledEq[c] != token.ILLEGAL {
			l.advance()
			k = doubledEq[c]
		}
	case n == '=' && withEq[c] != token.ILLEGAL:
		l.advance()
		k = withEq[c]
	case n == '>' && c == '-':
		l.advance()
		k = token.ARROW
	}
	return token.Token{Kind: k, Pos: pos}
}

// ScanAll lexes the whole input and returns every token up to and including
// the terminating EOF. Handy for tests and tooling.
func ScanAll(file, src string) ([]token.Token, []*Error) {
	l := New(file, src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.Errors()
		}
	}
}
