package sqlengine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/page"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	eng, err := engine.Create(engine.Config{
		Pages: fcb.NewMemFile(),
		Log:   engine.NewMemPipeline(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng)
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func rowsToStrings(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func setupUsers(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE users (id INT PRIMARY KEY, name TEXT, age INT, score FLOAT)`)
	mustExec(t, db, `INSERT INTO users VALUES
		(1, 'alice', 30, 91.5),
		(2, 'bob', 25, 82.0),
		(3, 'carol', 35, 75.25),
		(4, 'dave', 25, 60.0)`)
}

func TestCreateInsertSelect(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `SELECT * FROM users ORDER BY id`)
	if len(res.Rows) != 4 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	got := rowsToStrings(res)
	if got[0] != "1|alice|30|91.5" {
		t.Fatalf("row 0 = %q", got[0])
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `SELECT name, age * 2 AS doubled FROM users WHERE id = 2`)
	if res.Columns[0] != "name" || res.Columns[1] != "doubled" {
		t.Fatalf("cols = %v", res.Columns)
	}
	if got := rowsToStrings(res); len(got) != 1 || got[0] != "bob|50" {
		t.Fatalf("rows = %v", got)
	}
}

func TestWhereOperators(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	cases := []struct {
		where string
		want  int
	}{
		{"age = 25", 2},
		{"age != 25", 2},
		{"age > 25", 2},
		{"age >= 25", 4},
		{"age < 30", 2},
		{"age <= 30", 3},
		{"age = 25 AND score > 70", 1},
		{"age = 25 OR age = 30", 3},
		{"NOT age = 25", 2},
		{"name = 'alice'", 1},
		{"score > 80.0 AND age < 31", 2},
		{"(age = 25 OR age = 35) AND score < 80", 2},
	}
	for _, c := range cases {
		res := mustExec(t, db, "SELECT id FROM users WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `SELECT name FROM users ORDER BY score DESC LIMIT 2`)
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("rows = %v", got)
	}
	res = mustExec(t, db, `SELECT id FROM users ORDER BY age ASC LIMIT 10`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(age), AVG(score), MIN(name), MAX(age) FROM users`)
	row := res.Rows[0]
	if row[0].I != 4 {
		t.Fatalf("count = %v", row[0])
	}
	if row[1].F != 115 {
		t.Fatalf("sum = %v", row[1])
	}
	if row[2].F < 77.18 || row[2].F > 77.19 {
		t.Fatalf("avg = %v", row[2])
	}
	if row[3].S != "alice" {
		t.Fatalf("min = %v", row[3])
	}
	if row[4].I != 35 {
		t.Fatalf("max = %v", row[4])
	}
}

func TestAggregateWithWhereAndEmpty(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `SELECT COUNT(*) AS n FROM users WHERE age = 25`)
	if res.Columns[0] != "n" || res.Rows[0][0].I != 2 {
		t.Fatalf("res = %v %v", res.Columns, res.Rows)
	}
	res = mustExec(t, db, `SELECT SUM(age), AVG(age), MIN(age) FROM users WHERE age > 100`)
	for i, v := range res.Rows[0] {
		if !v.IsNull() {
			t.Fatalf("aggregate %d over empty set = %v, want NULL", i, v)
		}
	}
}

func TestUpdate(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `UPDATE users SET age = age + 1 WHERE age = 25`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM users WHERE age = 26`)
	if res.Rows[0][0].I != 2 {
		t.Fatalf("post-update count = %v", res.Rows[0][0])
	}
}

func TestUpdatePrimaryKey(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	mustExec(t, db, `UPDATE users SET id = 100 WHERE id = 1`)
	res := mustExec(t, db, `SELECT name FROM users WHERE id = 100`)
	if got := rowsToStrings(res); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("moved row = %v", got)
	}
	if res := mustExec(t, db, `SELECT * FROM users WHERE id = 1`); len(res.Rows) != 0 {
		t.Fatal("old key still present")
	}
	// PK collision on update is rejected.
	if _, err := db.Exec(`UPDATE users SET id = 2 WHERE id = 3`); !errors.Is(err, errDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	res := mustExec(t, db, `DELETE FROM users WHERE age = 25`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM users`)
	if res.Rows[0][0].I != 2 {
		t.Fatalf("remaining = %v", res.Rows[0][0])
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	if _, err := db.Exec(`INSERT INTO users VALUES (1, 'dup', 1, 1.0)`); !errors.Is(err, errDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	mustExec(t, db, `INSERT INTO users (age, id, name) VALUES (40, 9, 'zed')`)
	res := mustExec(t, db, `SELECT name, age, score FROM users WHERE id = 9`)
	got := rowsToStrings(res)
	if got[0] != "zed|40|NULL" {
		t.Fatalf("row = %q", got[0])
	}
}

func TestTypeChecking(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	if _, err := db.Exec(`INSERT INTO users VALUES ('text-id', 'x', 1, 1.0)`); err == nil {
		t.Fatal("text into INT accepted")
	}
	if _, err := db.Exec(`INSERT INTO users VALUES (10, 42, 1, 1.0)`); err == nil {
		t.Fatal("int into TEXT accepted")
	}
	// INT into FLOAT coerces.
	mustExec(t, db, `INSERT INTO users VALUES (10, 'ok', 1, 5)`)
	if _, err := db.Exec(`INSERT INTO users VALUES (NULL, 'x', 1, 1.0)`); err == nil {
		t.Fatal("NULL primary key accepted")
	}
}

func TestExplicitTransaction(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	s := db.Session()
	mustSession := func(sql string) *Result {
		res, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustSession("BEGIN")
	mustSession(`UPDATE users SET age = 99 WHERE id = 1`)
	// Own session sees the change; others do not.
	if res := mustSession(`SELECT age FROM users WHERE id = 1`); res.Rows[0][0].I != 99 {
		t.Fatal("own write invisible in tx")
	}
	if res := mustExec(t, db, `SELECT age FROM users WHERE id = 1`); res.Rows[0][0].I != 30 {
		t.Fatal("uncommitted write visible to other session")
	}
	mustSession("ROLLBACK")
	if res := mustExec(t, db, `SELECT age FROM users WHERE id = 1`); res.Rows[0][0].I != 30 {
		t.Fatal("rollback did not discard")
	}

	mustSession("BEGIN")
	mustSession(`UPDATE users SET age = 77 WHERE id = 1`)
	mustSession("COMMIT")
	if res := mustExec(t, db, `SELECT age FROM users WHERE id = 1`); res.Rows[0][0].I != 77 {
		t.Fatal("committed write lost")
	}
}

func TestTransactionErrors(t *testing.T) {
	db := newDB(t)
	s := db.Session()
	if _, err := s.Exec("COMMIT"); !errors.Is(err, errNoTx) {
		t.Fatalf("commit outside tx: %v", err)
	}
	if _, err := s.Exec("ROLLBACK"); !errors.Is(err, errNoTx) {
		t.Fatalf("rollback outside tx: %v", err)
	}
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("BEGIN"); !errors.Is(err, errTxOpen) {
		t.Fatalf("nested begin: %v", err)
	}
}

func TestShowTablesAndDrop(t *testing.T) {
	db := newDB(t)
	setupUsers(t, db)
	mustExec(t, db, `CREATE TABLE extra (k INT PRIMARY KEY)`)
	res := mustExec(t, db, `SHOW TABLES`)
	if got := rowsToStrings(res); len(got) != 2 || got[0] != "extra" || got[1] != "users" {
		t.Fatalf("tables = %v", got)
	}
	mustExec(t, db, `DROP TABLE extra`)
	if _, err := db.Exec(`SELECT * FROM extra`); !errors.Is(err, errNoSuchTable) {
		t.Fatalf("select from dropped: %v", err)
	}
	if _, err := db.Exec(`DROP TABLE ghost`); !errors.Is(err, errNoSuchTable) {
		t.Fatalf("drop missing: %v", err)
	}
}

func TestDDLValidation(t *testing.T) {
	db := newDB(t)
	bad := []string{
		`CREATE TABLE t (a INT, b INT)`,                         // no PK
		`CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)`, // two PKs
		`CREATE TABLE t (a INT PRIMARY KEY, a TEXT)`,            // dup col
		`CREATE TABLE __schema (a INT PRIMARY KEY)`,             // reserved
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
	mustExec(t, db, `CREATE TABLE t (a INT PRIMARY KEY)`)
	if _, err := db.Exec(`CREATE TABLE t (a INT PRIMARY KEY)`); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES (1",
		"CREATE TABLE t (a BADTYPE PRIMARY KEY)",
		"SELECT * FROM t LIMIT abc",
		"SELECT SUM(*) FROM t",
		"UPDATE t SET",
		"SELECT * FROM t; garbage",
		"'unterminated",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%q: parsed without error", sql)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE q (id INT PRIMARY KEY, s TEXT)`)
	mustExec(t, db, `INSERT INTO q VALUES (1, 'it''s quoted')`)
	res := mustExec(t, db, `SELECT s FROM q WHERE id = 1`)
	if res.Rows[0][0].S != "it's quoted" {
		t.Fatalf("s = %q", res.Rows[0][0].S)
	}
}

func TestNullSemantics(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE n (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO n VALUES (1, 10), (2, NULL)`)
	// NULL never matches comparisons.
	res := mustExec(t, db, `SELECT id FROM n WHERE v = 10`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res = mustExec(t, db, `SELECT id FROM n WHERE v != 10`)
	if len(res.Rows) != 0 {
		t.Fatalf("NULL matched !=: %d rows", len(res.Rows))
	}
	// Aggregates skip NULLs.
	res = mustExec(t, db, `SELECT COUNT(v), COUNT(*) FROM n`)
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 2 {
		t.Fatalf("counts = %v", res.Rows[0])
	}
}

func TestIntKeysOrderCorrectly(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE o (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO o VALUES (-5), (3), (-100), (0), (250), (7)`)
	res := mustExec(t, db, `SELECT id FROM o`)
	want := []string{"-100", "-5", "0", "3", "7", "250"}
	got := rowsToStrings(res)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order = %v, want %v", got, want)
	}
}

func TestPointLookupUsesPKPlan(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, v TEXT)`)
	s := db.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO big VALUES (%d, 'v%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT v FROM big WHERE id = 321`)
	if got := rowsToStrings(res); len(got) != 1 || got[0] != "v321" {
		t.Fatalf("point lookup = %v", got)
	}
	// Also under AND.
	res = mustExec(t, db, `SELECT v FROM big WHERE id = 321 AND v = 'v321'`)
	if len(res.Rows) != 1 {
		t.Fatal("AND point lookup failed")
	}
	res = mustExec(t, db, `SELECT v FROM big WHERE id = 321 AND v = 'other'`)
	if len(res.Rows) != 0 {
		t.Fatal("residual filter ignored")
	}
}

func TestFloatAndNegativeLiterals(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE f (id INT PRIMARY KEY, x FLOAT)`)
	mustExec(t, db, `INSERT INTO f VALUES (1, -2.5), (2, 3.25)`)
	res := mustExec(t, db, `SELECT SUM(x) FROM f`)
	if res.Rows[0][0].F != 0.75 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, `SELECT id FROM f WHERE x < -1`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("negative compare = %v", res.Rows)
	}
}

func TestDivisionByZero(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE d (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO d VALUES (1)`)
	if _, err := db.Exec(`SELECT id / 0 FROM d`); err == nil {
		t.Fatal("division by zero accepted")
	}
}

// Property: key encoding preserves INT order.
func TestKeyEncodingOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka, err1 := encodeKey(intValue(a))
		kb, err2 := encodeKey(intValue(b))
		if err1 != nil || err2 != nil {
			return false
		}
		cmp := strings.Compare(string(ka), string(kb))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: row codec round-trips arbitrary values.
func TestRowCodecProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, useNull bool) bool {
		vals := []Value{intValue(i), floatValue(fl), textValue(s)}
		if useNull {
			vals = append(vals, nullValue())
		}
		got, err := decodeRow(encodeRow(vals), len(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for j := range vals {
			if got[j].Kind != vals[j].Kind {
				return false
			}
			switch vals[j].Kind {
			case kindInt:
				if got[j].I != vals[j].I {
					return false
				}
			case kindFloat:
				if got[j].F != vals[j].F && !(vals[j].F != vals[j].F) { // NaN
					return false
				}
			case kindText:
				if got[j].S != vals[j].S {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the key codec loses nothing: two values share a key only if
// they are equal.
func TestKeyCodecRoundTripProperty(t *testing.T) {
	f := func(i, j int64, s, u string) bool {
		ki, _ := encodeKey(intValue(i))
		kj, _ := encodeKey(intValue(j))
		ks, _ := encodeKey(textValue(s))
		ku, _ := encodeKey(textValue(u))
		return bytes.Equal(ki, kj) == (i == j) && bytes.Equal(ks, ku) == (s == u) && !bytes.Equal(ki, ks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRowInsertAndExpressionInValues(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE m (id INT PRIMARY KEY, v INT)`)
	res := mustExec(t, db, `INSERT INTO m VALUES (1, 2 + 3), (2, 10 * 4), (3, -(5))`)
	if res.Affected != 3 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := rowsToStrings(mustExec(t, db, `SELECT v FROM m`))
	if fmt.Sprint(got) != "[5 40 -5]" {
		t.Fatalf("values = %v", got)
	}
}

// countingPages counts page reads, so a test can tell a bounded scan from
// a full one.
type countingPages struct {
	*fcb.MemFile
	reads atomic.Int64
}

func (c *countingPages) Read(id page.ID) (*page.Page, error) {
	c.reads.Add(1)
	return c.MemFile.Read(id)
}

// rangeTable loads r(id INT PRIMARY KEY, v TEXT) with ids lo..hi-1.
func rangeTable(t *testing.T, lo, hi int) (*DB, *countingPages) {
	t.Helper()
	pages := &countingPages{MemFile: fcb.NewMemFile()}
	eng, err := engine.Create(engine.Config{Pages: pages, Log: engine.NewMemPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	db := New(eng)
	mustExec(t, db, `CREATE TABLE r (id INT PRIMARY KEY, v TEXT)`)
	s := db.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO r VALUES (%d, 'v%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	return db, pages
}

// TestPKRangeBounds checks every bound shape against a brute-force filter
// over ids -300..299: inclusive and exclusive ends, mirrored operands,
// BETWEEN, negative literals, several conjuncts on the key, a residual
// predicate, empty ranges, and shapes that must fall back to the full scan.
func TestPKRangeBounds(t *testing.T) {
	db, _ := rangeTable(t, -300, 300)
	cases := []struct {
		where   string
		match   func(id int) bool
		bounded bool
	}{
		{`id > 250`, func(id int) bool { return id > 250 }, true},
		{`id >= 250`, func(id int) bool { return id >= 250 }, true},
		{`id < -250`, func(id int) bool { return id < -250 }, true},
		{`id <= -250`, func(id int) bool { return id <= -250 }, true},
		{`10 < id AND 20 >= id`, func(id int) bool { return 10 < id && 20 >= id }, true},
		{`id >= -5 AND id < 5`, func(id int) bool { return id >= -5 && id < 5 }, true},
		{`id BETWEEN 7 AND 11`, func(id int) bool { return id >= 7 && id <= 11 }, true},
		{`id BETWEEN -3 AND 2 AND v != 'v0'`, func(id int) bool { return id >= -3 && id <= 2 && id != 0 }, true},
		{`id > 0 AND id > 100 AND id < 200 AND id <= 150`, func(id int) bool { return id > 100 && id <= 150 }, true},
		{`id > 50 AND id < 40`, func(id int) bool { return false }, true},
		{`id >= 299`, func(id int) bool { return id >= 299 }, true},
		{`id > 299`, func(id int) bool { return false }, true},
		{`id < 10 OR id > 290`, func(id int) bool { return id < 10 || id > 290 }, false},
		{`id + 0 > 295`, func(id int) bool { return id > 295 }, false},
		// Mixed-type literal: FLOAT against the INT key encodes under another
		// tag, so it must not become a bound — and must still filter.
		{`id > 296.5`, func(id int) bool { return float64(id) > 296.5 }, false},
		{`id > 296.5 AND id < 299`, func(id int) bool { return id >= 297 && id < 299 }, true},
	}
	sc, err := db.schema(db.phys("r"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		st, err := Parse(`SELECT id FROM r WHERE ` + c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		lo, hi := pkBounds(st.(*selectStmt).where, sc)
		if got := lo != nil || hi != nil; got != c.bounded {
			t.Errorf("%s: bounded = %v, want %v", c.where, got, c.bounded)
		}
		var want []string
		for id := -300; id < 300; id++ {
			if c.match(id) {
				want = append(want, fmt.Sprint(id))
			}
		}
		got := rowsToStrings(mustExec(t, db, `SELECT id FROM r WHERE `+c.where))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: got %v, want %v", c.where, got, want)
		}
	}
}

// TestPKEqualityRespectsKeyType: an equality on the primary key whose
// literal does not encode to the stored key — another type than the key's,
// or a float zero of the other sign — still finds its row through the scan
// and the residual filter, in SELECT, UPDATE and DELETE alike.
func TestPKEqualityRespectsKeyType(t *testing.T) {
	for _, c := range []struct{ keyType, stored, where string }{
		{"INT", "1", "id = 1.0"},
		{"INT", "1", "1.0 = id AND v = 'a'"},
		{"FLOAT", "-0.0", "id = 0.0"},
		{"FLOAT", "0.0", "id = -0.0"},
	} {
		for _, stmt := range []string{"SELECT", "UPDATE", "DELETE"} {
			db := newDB(t)
			mustExec(t, db, `CREATE TABLE t (id `+c.keyType+` PRIMARY KEY, v TEXT)`)
			mustExec(t, db, `INSERT INTO t VALUES (`+c.stored+`, 'a')`)
			var got int
			switch stmt {
			case "SELECT":
				got = len(mustExec(t, db, `SELECT * FROM t WHERE `+c.where).Rows)
			case "UPDATE":
				got = mustExec(t, db, `UPDATE t SET v = 'b' WHERE `+c.where).Affected
			case "DELETE":
				got = mustExec(t, db, `DELETE FROM t WHERE `+c.where).Affected
			}
			if got != 1 {
				t.Errorf("%s key %s, %s WHERE %s: %d rows, want 1", c.keyType, c.stored, stmt, c.where, got)
			}
		}
	}
}

// TestPKRangeReadsOnlyItsPages: a 20-row range over a many-leaf table reads
// a root-to-leaf path, not every leaf.
func TestPKRangeReadsOnlyItsPages(t *testing.T) {
	db, pages := rangeTable(t, 0, 4000)
	before := pages.reads.Load()
	full := mustExec(t, db, `SELECT id FROM r WHERE v = 'v17'`)
	fullReads := pages.reads.Load() - before
	before = pages.reads.Load()
	ranged := mustExec(t, db, `SELECT id FROM r WHERE id >= 2000 AND id < 2020`)
	rangeReads := pages.reads.Load() - before
	if len(full.Rows) != 1 || len(ranged.Rows) != 20 {
		t.Fatalf("rows: full %d, range %d", len(full.Rows), len(ranged.Rows))
	}
	if rangeReads > 8 || fullReads < 5*rangeReads {
		t.Fatalf("range read %d pages, full scan %d", rangeReads, fullReads)
	}
}

func TestPKRangeTextKeys(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, `CREATE TABLE n (name TEXT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO n VALUES ('ann'), ('bo'), ('bob'), ('boc'), ('cy'), ('')`)
	for where, want := range map[string]string{
		`name > 'bo'`:                 "[bob boc cy]",
		`name >= 'bo' AND name < 'c'`: "[bo bob boc]",
		`name <= 'ann'`:               "[ ann]",
		`name BETWEEN 'b' AND 'bob'`:  "[bo bob]",
	} {
		got := fmt.Sprint(rowsToStrings(mustExec(t, db, `SELECT name FROM n WHERE `+where)))
		if got != want {
			t.Errorf("%s: got %s, want %s", where, got, want)
		}
	}
}

// TestPKRangeSeesOwnWrites: inside a transaction the bounded scan overlays
// the session's own inserts, updates and deletes that fall in the range, and
// none that fall outside it.
func TestPKRangeSeesOwnWrites(t *testing.T) {
	db, _ := rangeTable(t, 0, 100)
	s := db.Session()
	for _, q := range []string{
		"BEGIN",
		`DELETE FROM r WHERE id = 42`,
		`UPDATE r SET v = 'mine' WHERE id = 44`,
		`DELETE FROM r WHERE id = 45`,
		`INSERT INTO r VALUES (45, 'again')`,
		`INSERT INTO r VALUES (1000, 'outside')`,
		`DELETE FROM r WHERE id = 10`,
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	res, err := s.Exec(`SELECT id, v FROM r WHERE id > 40 AND id <= 46`)
	if err != nil {
		t.Fatal(err)
	}
	want := "[41|v41 43|v43 44|mine 45|again 46|v46]"
	if got := fmt.Sprint(rowsToStrings(res)); got != want {
		t.Fatalf("in tx: got %s, want %s", got, want)
	}
	// Another session still sees the committed rows.
	other := rowsToStrings(mustExec(t, db, `SELECT id FROM r WHERE id > 40 AND id <= 46`))
	if fmt.Sprint(other) != "[41 42 43 44 45 46]" {
		t.Fatalf("other session: %v", other)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, db, `SELECT id FROM r WHERE id BETWEEN 999 AND 1001`)
	if fmt.Sprint(rowsToStrings(res)) != "[1000]" {
		t.Fatalf("after commit: %v", rowsToStrings(res))
	}
}
