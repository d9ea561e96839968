package sqlengine

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strconv"
	"testing"

	"socrates/internal/testutil"
)

// benchShapes are the three statement shapes of the sql-point workload, at
// the widths its ids and values reach.
var benchShapes = []struct {
	name   string
	sql    string
	budget float64
}{
	{"select", "SELECT v FROM t WHERE id = 4193", 6},
	{"update", "UPDATE t SET a = 4611686018427387903 WHERE id = 4193", 7},
	{"insert", "INSERT INTO t VALUES (200000017, 4611686018427387903, 'v200000017-socrates-bench-row-payload-0123456789abcdef')", 8},
}

// TestParseAllocs is the allocation contract of the SQL front end: lexing
// allocates nothing for a statement of the bench's shapes (token texts
// slice the source, keywords come from the table, the tokens sit in
// Parse's frame), so what is left is the AST. Copying every token's text
// and growing the token slice cost 23, 28 and 32.
func TestParseAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	for _, c := range benchShapes {
		if _, err := Parse(c.sql); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, err := Parse(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if avg > c.budget {
			t.Errorf("Parse of a %s: %.1f allocs, budget %.0f", c.name, avg, c.budget)
		}
	}
}

// TestParseErrorPositions pins every message that reports a position
// after a non-ASCII character: positions are byte offsets inside the
// lexer and the parser, and each message reports the rune index the rune
// lexer reported.
func TestParseErrorPositions(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"SELECT café FROM t WHERE a ~ 1", "sql: unexpected character '~' at 27"},
		{"SELECT 'ü' FROM t WHERE 'open", "sql: unterminated string at 24"},
		{"SELECT café FROM", `sql: expected token kind 1, got "" at 16`},
		{"SELECT * FROM café WHERE a BETWEEN 1 OR 2", "sql: BETWEEN needs AND at 37"},
		{"SELECT * FROM café WHERE a = )", `sql: unexpected token ")" at 29`},
	} {
		if _, err := Parse(c.sql); err == nil || err.Error() != c.want {
			t.Errorf("%q: err %v, want %q", c.sql, err, c.want)
		}
	}
}

// FuzzLex holds lex to the rune lexer it replaced (refLex): for any input,
// arbitrary bytes included, both fail with the same message or both give
// the same token kinds, texts and positions (lex's byte offsets read as
// rune indexes).
func FuzzLex(f *testing.F) {
	for _, s := range sqlTestLiterals(f) {
		f.Add(s)
	}
	for _, c := range benchShapes {
		f.Add(c.sql)
	}
	for _, s := range []string{
		"ſelect * from t", "create table t (a ınt primary key)",
		"SELECT a\u0085FROM t", "SELECT ٣٤ FROM t",
		"INSERT INTO t VALUES (1, 'it''s')", "SELECT 'open",
		"SELECT 'a\xffb' FROM t", "SELECT café FROM t WHERE a ~ 1", "SELECT a\xff FROM t", "SELECT a <> b FROM t",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := refLex(src)
		got, gotErr := lex(src, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: err %v, reference %v", src, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: err %q, reference %q", src, gotErr, wantErr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, reference %d", src, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.kind != w.kind || g.text != w.text || runeIndex(src, g.pos) != w.pos {
				t.Fatalf("%q: token %d = {%d %q %d}, reference {%d %q %d}",
					src, i, g.kind, g.text, runeIndex(src, g.pos), w.kind, w.text, w.pos)
			}
		}
	})
}

// sqlTestLiterals returns every string literal of sql_test.go: its
// statements, WHERE clauses and malformed inputs.
func sqlTestLiterals(tb testing.TB) []string {
	tb.Helper()
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "sql_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, s)
		}
		return true
	})
	return out
}
