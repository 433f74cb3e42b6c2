package lexer

import (
	"slices"
	"testing"

	"shangrila/internal/baker/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := ScanAll("test.baker", src)
	if len(errs) > 0 {
		t.Fatalf("lex errors: %v", errs[0])
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	got := kinds(t, "module ppf func control init wiring hello _x9")
	want := []token.Kind{token.MODULE, token.PPF, token.FUNC, token.CONTROL,
		token.INITKW, token.WIRING, token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, errs := ScanAll("t", "0 42 0x0806 0xdeadBEEF")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs[0])
	}
	wantLits := []string{"0", "42", "0x0806", "0xdeadBEEF"}
	for i, w := range wantLits {
		if toks[i].Kind != token.INT || toks[i].Lit != w {
			t.Errorf("token %d = %v, want INT %q", i, toks[i], w)
		}
	}
}

func TestOperators(t *testing.T) {
	got := kinds(t, "-> << >> <<= >>= && || == != <= >= += ++ -- ? :")
	want := []token.Kind{token.ARROW, token.SHL, token.SHR, token.SHL_ASSIGN,
		token.SHR_ASSIGN, token.LAND, token.LOR, token.EQL, token.NEQ,
		token.LEQ, token.GEQ, token.ADD_ASSIGN, token.INC, token.DEC,
		token.QUEST, token.COLON, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "a // line comment\nb /* block\ncomment */ c")
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := ScanAll("f.baker", "a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
}

func TestStringLiteral(t *testing.T) {
	toks, errs := ScanAll("t", `"hello\nworld"`)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs[0])
	}
	if toks[0].Kind != token.STRING || toks[0].Lit != "hello\nworld" {
		t.Errorf("got %v", toks[0])
	}
}

func TestErrors(t *testing.T) {
	cases := []string{"@", `"unterminated`, "/* unterminated", "0x"}
	for _, src := range cases {
		_, errs := ScanAll("t", src)
		if len(errs) == 0 {
			t.Errorf("source %q: expected a lex error", src)
		}
	}
}

func TestIdentAfterNumberRejected(t *testing.T) {
	_, errs := ScanAll("t", "12abc")
	if len(errs) == 0 {
		t.Fatal("expected error for 12abc")
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("t", "x")
	l.Next()
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d after end: got %v, want EOF", i, tok)
		}
	}
}

// operators is every operator the lexer knows: 2 three-character, 19
// two-character and 24 one-character.
var operators = []struct {
	lit  string
	kind token.Kind
}{
	{"<<=", token.SHL_ASSIGN}, {">>=", token.SHR_ASSIGN},
	{"<<", token.SHL}, {">>", token.SHR}, {"&&", token.LAND}, {"||", token.LOR},
	{"==", token.EQL}, {"!=", token.NEQ}, {"<=", token.LEQ}, {">=", token.GEQ},
	{"+=", token.ADD_ASSIGN}, {"-=", token.SUB_ASSIGN}, {"*=", token.MUL_ASSIGN},
	{"/=", token.QUO_ASSIGN}, {"%=", token.REM_ASSIGN}, {"&=", token.AND_ASSIGN},
	{"|=", token.OR_ASSIGN}, {"^=", token.XOR_ASSIGN},
	{"->", token.ARROW}, {"++", token.INC}, {"--", token.DEC},
	{"+", token.ADD}, {"-", token.SUB}, {"*", token.MUL}, {"/", token.QUO},
	{"%", token.REM}, {"&", token.AND}, {"|", token.OR}, {"^", token.XOR},
	{"~", token.NOT}, {"!", token.LNOT}, {"<", token.LSS}, {">", token.GTR},
	{"=", token.ASSIGN}, {"(", token.LPAREN}, {")", token.RPAREN},
	{"{", token.LBRACE}, {"}", token.RBRACE}, {"[", token.LBRACK},
	{"]", token.RBRACK}, {",", token.COMMA}, {";", token.SEMI},
	{":", token.COLON}, {".", token.DOT}, {"?", token.QUEST},
}

// TestOperatorTable scans every operator alone, then every ordered pair
// with a space between, which must come out as the two operators.
func TestOperatorTable(t *testing.T) {
	if len(operators) != 2+19+24 {
		t.Fatalf("table has %d operators", len(operators))
	}
	for _, op := range operators {
		toks, errs := ScanAll("t", op.lit)
		if len(errs) != 0 || len(toks) != 2 || toks[0].Kind != op.kind || toks[0].Lit != "" ||
			toks[1].Pos.Col != 1+len(op.lit) {
			t.Errorf("%q: got %v (errors %v), want one %v then EOF", op.lit, toks, errs, op.kind)
		}
		for _, next := range operators {
			toks, errs := ScanAll("t", op.lit+" "+next.lit)
			if len(errs) != 0 || len(toks) != 3 || toks[0].Kind != op.kind || toks[1].Kind != next.kind {
				t.Fatalf("%q %q: got %v (errors %v)", op.lit, next.lit, toks, errs)
			}
		}
	}
}

// TestIllegalCharacters pins the error text and ILLEGAL token for bytes
// that start no token, including non-ASCII and NUL.
func TestIllegalCharacters(t *testing.T) {
	for _, src := range []string{"@", "a # b", "$`\\'", "\x00", "\x7f", "caf\xc3\xa9", "\xff<<"} {
		toks, errs := ScanAll("t", src)
		if len(errs) == 0 || !slices.ContainsFunc(toks, func(tk token.Token) bool { return tk.Kind == token.ILLEGAL }) {
			t.Errorf("%q: got %v, errors %v, want an ILLEGAL token and an error", src, toks, errs)
		}
	}
	toks, errs := ScanAll("f", " @")
	if len(errs) != 1 || errs[0].Error() != `f:1:2: illegal character '@'` ||
		toks[0].Kind != token.ILLEGAL || toks[0].Lit != "@" {
		t.Errorf("got %v, errors %v", toks, errs)
	}
}
