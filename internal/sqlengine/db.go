package sqlengine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"socrates/internal/engine"
	"socrates/internal/obs"
)

// schemaTable is the system table mapping table name → encoded schema.
const schemaTable = "__schema"

// Errors.
var (
	errNoSuchTable  = errors.New("sql: no such table")
	errDuplicateKey = errors.New("sql: duplicate primary key")
	errNoTx         = errors.New("sql: no open transaction")
	errTxOpen       = errors.New("sql: transaction already open")
)

// DB compiles SQL onto a storage engine.
type DB struct {
	eng *engine.Engine

	mu      sync.Mutex
	schemas map[string]*schema
}

// New wraps an engine. The same DB serves any number of Sessions.
func New(eng *engine.Engine) *DB {
	return &DB{eng: eng, schemas: make(map[string]*schema)}
}

// phys maps a SQL-visible table name to its physical engine table name.
func (db *DB) phys(table string) string { return strings.ToLower(table) }

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
	// Waits is the statement's per-request wait breakdown, the waits of
	// its "sql.exec" span: every blocked interval the request hit in
	// this process (commit hardening, page misses, fabric round trips,
	// ...), each counted once, by class, sorted by total — the
	// EXPLAIN-ANALYZE of where the statement's latency went. Empty when
	// nothing blocked, or with observability off (no tracer).
	Waits []obs.WaitClassStat
	// WaitTotal sums Waits across classes.
	WaitTotal time.Duration
}

// Session is one connection: it holds at most one open transaction.
// Statements outside BEGIN/COMMIT auto-commit.
type Session struct {
	db *DB
	tx *engine.Tx
}

// Session opens a new session.
func (db *DB) Session() *Session { return &Session{db: db} }

// Exec parses and runs one statement on a fresh session (convenience).
func (db *DB) Exec(sql string) (*Result, error) { return db.Session().Exec(sql) }

// ExecContext parses and runs one statement on a fresh session, bounded
// by (and traced through) ctx.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return db.Session().ExecContext(ctx, sql)
}

// Exec parses and runs one statement.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext parses and runs one statement bounded by ctx. The whole
// statement — parse, execution, commit hardening, and any GetPage@LSN
// traffic it causes — runs under one "sql.exec" span.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx, stmt)
}

// RunContext executes a parsed statement bounded by (and traced through)
// ctx.
func (s *Session) RunContext(ctx context.Context, stmt statement) (*Result, error) {
	eng := s.db.eng
	start := time.Now()
	ctx, span := eng.Tracer().StartSpan(ctx, obs.TierCompute, "sql.exec")
	defer span.End()
	span.SetAttr("stmt", stmtName(stmt))
	res, err := s.runStmt(ctx, stmt)
	span.SetError(err)
	if err == nil {
		eng.Metrics().Histogram("compute.sql.latency").Observe(time.Since(start))
		eng.Metrics().Counter("compute.sql.statements").Inc()
	}
	if res != nil {
		// Every WaitPoint the statement passed through in-process adds
		// to span and its ancestors, so the span's waits are the
		// statement's.
		res.Waits = span.WaitBreakdown()
		for _, w := range res.Waits {
			res.WaitTotal += time.Duration(w.TotalNS)
		}
	}
	return res, err
}

// stmtName labels a statement for spans and metrics.
func stmtName(stmt statement) string {
	switch stmt.(type) {
	case *beginStmt:
		return "begin"
	case *commitStmt:
		return "commit"
	case *rollbackStmt:
		return "rollback"
	case *showTablesStmt:
		return "show-tables"
	case *createTableStmt:
		return "create-table"
	case *dropTableStmt:
		return "drop-table"
	case *insertStmt:
		return "insert"
	case *selectStmt:
		return "select"
	case *updateStmt:
		return "update"
	case *deleteStmt:
		return "delete"
	default:
		return fmt.Sprintf("%T", stmt)
	}
}

func (s *Session) runStmt(ctx context.Context, stmt statement) (*Result, error) {
	switch st := stmt.(type) {
	case *beginStmt:
		if s.tx != nil {
			return nil, errTxOpen
		}
		s.tx = s.db.eng.BeginContext(ctx)
		return &Result{}, nil
	case *commitStmt:
		if s.tx == nil {
			return nil, errNoTx
		}
		err := s.tx.Commit()
		s.tx = nil
		return &Result{}, err
	case *rollbackStmt:
		if s.tx == nil {
			return nil, errNoTx
		}
		s.tx.Abort()
		s.tx = nil
		return &Result{}, nil
	case *showTablesStmt:
		return s.showTables()
	case *createTableStmt:
		return s.db.createTable(ctx, st)
	case *dropTableStmt:
		return s.db.dropTable(ctx, st)
	}

	// Row statements run in the session transaction or auto-commit.
	tx := s.tx
	auto := tx == nil
	if auto {
		if _, ok := stmt.(*selectStmt); ok {
			tx = s.db.eng.BeginROContext(ctx)
		} else {
			tx = s.db.eng.BeginContext(ctx)
		}
	}
	res, err := s.db.runRowStmt(tx, stmt)
	if auto {
		if err != nil {
			tx.Abort()
			return nil, err
		}
		if cerr := tx.Commit(); cerr != nil {
			return nil, cerr
		}
	}
	return res, err
}

func (s *Session) showTables() (*Result, error) {
	names, err := s.db.eng.Tables()
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"table"}}
	for _, n := range names {
		if n == schemaTable {
			continue
		}
		res.Rows = append(res.Rows, []Value{textValue(n)})
	}
	return res, nil
}

// --- DDL ---

func (db *DB) createTable(ctx context.Context, st *createTableStmt) (*Result, error) {
	if len(st.columns) == 0 {
		return nil, errors.New("sql: table needs at least one column")
	}
	pkCount := 0
	seen := map[string]bool{}
	for _, c := range st.columns {
		lc := strings.ToLower(c.name)
		if seen[lc] {
			return nil, fmt.Errorf("sql: duplicate column %q", c.name)
		}
		seen[lc] = true
		if c.pk {
			pkCount++
		}
	}
	if pkCount != 1 {
		return nil, fmt.Errorf("sql: table must have exactly one PRIMARY KEY column, got %d", pkCount)
	}
	name := db.phys(st.table)
	if name == schemaTable {
		return nil, errors.New("sql: reserved table name")
	}
	if err := db.ensureSchemaTable(ctx); err != nil {
		return nil, err
	}
	if err := db.eng.CreateTableContext(ctx, name); err != nil {
		if errors.Is(err, engine.ErrTableExists) {
			return nil, fmt.Errorf("sql: table %q already exists", name)
		}
		return nil, err
	}
	tx := db.eng.BeginContext(ctx)
	if err := tx.Put(schemaTable, []byte(name), encodeSchema(st.columns)); err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) dropTable(ctx context.Context, st *dropTableStmt) (*Result, error) {
	name := db.phys(st.table)
	if _, err := db.schema(name); err != nil {
		return nil, err
	}
	tx := db.eng.BeginContext(ctx)
	if err := tx.Delete(schemaTable, []byte(name)); err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	delete(db.schemas, name)
	db.mu.Unlock()
	// The engine-level table and its pages remain as garbage — reclaiming
	// them is a background job in a production system.
	return &Result{}, nil
}

func (db *DB) ensureSchemaTable(ctx context.Context) error {
	err := db.eng.CreateTableContext(ctx, schemaTable)
	if errors.Is(err, engine.ErrTableExists) {
		return nil
	}
	return err
}

// schema resolves a table's schema, caching it.
func (db *DB) schema(name string) (*schema, error) {
	name = strings.ToLower(name)
	db.mu.Lock()
	sc, ok := db.schemas[name]
	db.mu.Unlock()
	if ok {
		return sc, nil
	}
	tx := db.eng.BeginRO()
	defer tx.Abort()
	raw, found, err := tx.Get(schemaTable, []byte(name))
	if err != nil {
		if errors.Is(err, engine.ErrNoTable) {
			return nil, fmt.Errorf("%w: %q", errNoSuchTable, name)
		}
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", errNoSuchTable, name)
	}
	sc, err = decodeSchema(raw)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.schemas[name] = sc
	db.mu.Unlock()
	return sc, nil
}

// --- DML / queries ---

func (db *DB) runRowStmt(tx *engine.Tx, stmt statement) (*Result, error) {
	switch st := stmt.(type) {
	case *insertStmt:
		return db.runInsert(tx, st)
	case *selectStmt:
		return db.runSelect(tx, st)
	case *updateStmt:
		return db.runUpdate(tx, st)
	case *deleteStmt:
		return db.runDelete(tx, st)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// coerce adapts a value to the column type.
func coerce(v Value, t colType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case typeInt:
		if v.Kind == kindInt {
			return v, nil
		}
	case typeFloat:
		if v.Kind == kindFloat {
			return v, nil
		}
		if v.Kind == kindInt {
			return floatValue(float64(v.I)), nil
		}
	case typeText:
		if v.Kind == kindText {
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("sql: cannot store %v value in %v column", v.Kind, t)
}

func (db *DB) runInsert(tx *engine.Tx, st *insertStmt) (*Result, error) {
	name := db.phys(st.table)
	sc, err := db.schema(name)
	if err != nil {
		return nil, err
	}
	// column order mapping.
	order := make([]int, 0, len(sc.columns))
	if len(st.columns) == 0 {
		for i := range sc.columns {
			order = append(order, i)
		}
	} else {
		for _, cn := range st.columns {
			idx, ok := sc.colIndex(cn)
			if !ok {
				return nil, fmt.Errorf("sql: unknown column %q", cn)
			}
			order = append(order, idx)
		}
	}
	affected := 0
	for _, row := range st.rows {
		if len(row) != len(order) {
			return nil, fmt.Errorf("sql: %d values for %d columns", len(row), len(order))
		}
		vals := make([]Value, len(sc.columns))
		for i := range vals {
			vals[i] = nullValue()
		}
		for i, e := range row {
			v, err := evalExpr(e, nil)
			if err != nil {
				return nil, err
			}
			v, err = coerce(v, sc.columns[order[i]].typ)
			if err != nil {
				return nil, fmt.Errorf("sql: column %q: %w", sc.columns[order[i]].name, err)
			}
			vals[order[i]] = v
		}
		pk := vals[sc.pkIdx]
		if pk.IsNull() {
			return nil, errors.New("sql: primary key may not be NULL")
		}
		key, err := encodeKey(pk)
		if err != nil {
			return nil, err
		}
		if _, exists, err := tx.Get(name, key); err != nil {
			return nil, err
		} else if exists {
			return nil, fmt.Errorf("%w: %s", errDuplicateKey, pk)
		}
		if err := tx.Put(name, key, encodeRow(vals)); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// rowEnv builds the expression environment for one row.
func rowEnv(sc *schema, vals []Value) func(string) (Value, error) {
	return func(name string) (Value, error) {
		idx, ok := sc.colIndex(name)
		if !ok {
			return Value{}, fmt.Errorf("sql: unknown column %q", name)
		}
		return vals[idx], nil
	}
}

// scanMatching streams decoded rows matching the WHERE clause, using a
// point lookup when the predicate pins the primary key and a bounded scan
// when it only confines it.
func (db *DB) scanMatching(tx *engine.Tx, name string, sc *schema, where expr,
	fn func(key []byte, vals []Value) (bool, error)) error {
	// Plan: PK equality → point lookup.
	if pkVal, ok := pkEquality(where, sc); ok {
		key, err := encodeKey(pkVal)
		if err != nil {
			return err
		}
		raw, found, err := tx.Get(name, key)
		if err != nil || !found {
			return err
		}
		vals, err := decodeRow(raw, len(sc.columns))
		if err != nil {
			return err
		}
		match, err := evalBool(where, rowEnv(sc, vals))
		if err != nil || !match {
			return err
		}
		_, err = fn(key, vals)
		return err
	}
	// Plan: PK inequalities → scan of that key range. Without any, both
	// bounds are nil and this is the full scan. Either way the whole WHERE
	// stays on as the residual filter.
	lo, hi := pkBounds(where, sc)
	var inner error
	err := tx.Scan(name, lo, hi, func(k, raw []byte) bool {
		vals, err := decodeRow(raw, len(sc.columns))
		if err != nil {
			inner = err
			return false
		}
		if where != nil {
			match, err := evalBool(where, rowEnv(sc, vals))
			if err != nil {
				inner = err
				return false
			}
			if !match {
				return true
			}
		}
		cont, err := fn(k, vals)
		if err != nil {
			inner = err
			return false
		}
		return cont
	})
	if inner != nil {
		return inner
	}
	return err
}

// pkEquality detects `pk = literal` (possibly under ANDs) for point plans.
// Like pkBounds, it takes only a literal whose encoded key is the stored
// key of every row equal to it (keyExact); any other equality is left to
// the bounded or full scan and the residual filter.
func pkEquality(e expr, sc *schema) (Value, bool) {
	ex, ok := e.(*binaryExpr)
	if !ok {
		return Value{}, false
	}
	if ex.op == "AND" {
		if v, ok := pkEquality(ex.l, sc); ok {
			return v, true
		}
		return pkEquality(ex.r, sc)
	}
	col, lit := ex.l, ex.r
	if _, isCol := col.(*columnRef); !isCol {
		col, lit = lit, col
	}
	ref, isCol := col.(*columnRef)
	l, isLit := lit.(*literal)
	if ex.op != "=" || !isCol || !isLit || !keyExact(l.val, sc) {
		return Value{}, false
	}
	if idx, found := sc.colIndex(ref.name); !found || idx != sc.pkIdx {
		return Value{}, false
	}
	return l.val, true
}

// pkBounds derives the key range [lo, hi) that the top-level AND conjuncts
// of e confine the primary key to (nil = unbounded on that side). Only
// `pk <op> constant` comparisons whose constant has the key column's own
// type contribute, because only then does encodeKey order the constant
// among the stored keys; any other conjunct — a mixed-type constant, an OR,
// an expression over the key — is simply left to the residual filter.
func pkBounds(e expr, sc *schema) (lo, hi []byte) {
	ex, ok := e.(*binaryExpr)
	if !ok {
		return nil, nil
	}
	if ex.op == "AND" {
		llo, lhi := pkBounds(ex.l, sc)
		rlo, rhi := pkBounds(ex.r, sc)
		if bytes.Compare(rlo, llo) > 0 {
			llo = rlo
		}
		if lhi == nil || (rhi != nil && bytes.Compare(rhi, lhi) < 0) {
			lhi = rhi
		}
		return llo, lhi
	}
	op, col, lit := ex.op, ex.l, ex.r
	if _, isCol := col.(*columnRef); !isCol {
		// literal <op> pk: mirror the comparison.
		col, lit = lit, col
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	ref, isCol := col.(*columnRef)
	if !isCol {
		return nil, nil
	}
	if idx, found := sc.colIndex(ref.name); !found || idx != sc.pkIdx {
		return nil, nil
	}
	v, err := evalExpr(lit, nil) // constants only: a column reference errors
	if err != nil || !keyExact(v, sc) {
		return nil, nil
	}
	key, err := encodeKey(v)
	if err != nil {
		return nil, nil
	}
	// key+0x00 is the smallest key greater than key.
	switch op {
	case ">=":
		return key, nil
	case ">":
		return append(key, 0), nil
	case "<":
		return nil, key
	case "<=":
		return nil, append(key, 0)
	}
	return nil, nil
}

// keyExact reports whether constant v encodes to exactly the stored key of
// every row whose primary key equals it: v has the key column's own type
// (an INT key holding 1 is not found under the FLOAT 1.0's encoding), and
// is not a float zero (0.0 and -0.0 compare equal but encode apart).
func keyExact(v Value, sc *schema) bool {
	return kindMatches(v.Kind, sc.columns[sc.pkIdx].typ) && !(v.Kind == kindFloat && v.F == 0)
}

// kindMatches reports whether a value of kind k is stored as-is (without
// coercion) in a column of type t.
func kindMatches(k valueKind, t colType) bool {
	return (k == kindInt && t == typeInt) || (k == kindFloat && t == typeFloat) ||
		(k == kindText && t == typeText)
}

func (db *DB) runSelect(tx *engine.Tx, st *selectStmt) (*Result, error) {
	name := db.phys(st.table)
	sc, err := db.schema(name)
	if err != nil {
		return nil, err
	}
	if hasAggregates(st) {
		return db.runAggregate(tx, st, name, sc)
	}

	// Projection setup.
	var cols []string
	var project func(vals []Value) ([]Value, error)
	if st.star {
		for _, c := range sc.columns {
			cols = append(cols, c.name)
		}
		project = func(vals []Value) ([]Value, error) { return vals, nil }
	} else {
		for _, item := range st.items {
			colName := item.alias
			if colName == "" {
				if ref, ok := item.expr.(*columnRef); ok {
					colName = ref.name
				} else {
					colName = "expr"
				}
			}
			cols = append(cols, colName)
		}
		items := st.items
		project = func(vals []Value) ([]Value, error) {
			out := make([]Value, len(items))
			for i, item := range items {
				v, err := evalExpr(item.expr, rowEnv(sc, vals))
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}
	}

	res := &Result{Columns: cols}
	orderIdx := -1
	if st.orderBy != "" {
		idx, ok := sc.colIndex(st.orderBy)
		if !ok {
			return nil, fmt.Errorf("sql: unknown ORDER BY column %q", st.orderBy)
		}
		orderIdx = idx
	}
	type sortableRow struct {
		out []Value
		key Value
	}
	var rows []sortableRow
	err = db.scanMatching(tx, name, sc, st.where, func(_ []byte, vals []Value) (bool, error) {
		out, err := project(vals)
		if err != nil {
			return false, err
		}
		row := sortableRow{out: append([]Value(nil), out...)}
		if orderIdx >= 0 {
			row.key = vals[orderIdx]
		}
		rows = append(rows, row)
		// Early cut only valid without ORDER BY (PK order is scan order).
		if orderIdx < 0 && st.limit >= 0 && len(rows) >= st.limit {
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if orderIdx >= 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			c, err := compare(rows[i].key, rows[j].key)
			if err != nil {
				sortErr = err
			}
			if st.desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
		if st.limit >= 0 && len(rows) > st.limit {
			rows = rows[:st.limit]
		}
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, r.out)
	}
	return res, nil
}

func hasAggregates(st *selectStmt) bool {
	for _, item := range st.items {
		if item.agg != "" {
			return true
		}
	}
	return false
}

func (db *DB) runAggregate(tx *engine.Tx, st *selectStmt, name string, sc *schema) (*Result, error) {
	type aggState struct {
		count int64
		sum   float64
		min   Value
		max   Value
		any   bool
	}
	states := make([]aggState, len(st.items))
	for _, item := range st.items {
		if item.agg == "" {
			return nil, errors.New("sql: cannot mix aggregates and plain columns")
		}
	}
	err := db.scanMatching(tx, name, sc, st.where, func(_ []byte, vals []Value) (bool, error) {
		env := rowEnv(sc, vals)
		for i, item := range st.items {
			stt := &states[i]
			if item.star {
				stt.count++
				continue
			}
			v, err := evalExpr(item.expr, env)
			if err != nil {
				return false, err
			}
			if v.IsNull() {
				continue
			}
			stt.count++
			if f, ok := v.asFloat(); ok {
				stt.sum += f
			}
			if !stt.any {
				stt.min, stt.max, stt.any = v, v, true
			} else {
				if c, err := compare(v, stt.min); err == nil && c < 0 {
					stt.min = v
				}
				if c, err := compare(v, stt.max); err == nil && c > 0 {
					stt.max = v
				}
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	row := make([]Value, len(st.items))
	for i, item := range st.items {
		colName := item.alias
		if colName == "" {
			colName = strings.ToLower(item.agg)
		}
		res.Columns = append(res.Columns, colName)
		stt := states[i]
		switch item.agg {
		case "COUNT":
			row[i] = intValue(stt.count)
		case "SUM":
			if stt.count == 0 {
				row[i] = nullValue()
			} else {
				row[i] = floatValue(stt.sum)
			}
		case "AVG":
			if stt.count == 0 {
				row[i] = nullValue()
			} else {
				row[i] = floatValue(stt.sum / float64(stt.count))
			}
		case "MIN":
			if !stt.any {
				row[i] = nullValue()
			} else {
				row[i] = stt.min
			}
		case "MAX":
			if !stt.any {
				row[i] = nullValue()
			} else {
				row[i] = stt.max
			}
		}
	}
	res.Rows = [][]Value{row}
	return res, nil
}

func (db *DB) runUpdate(tx *engine.Tx, st *updateStmt) (*Result, error) {
	name := db.phys(st.table)
	sc, err := db.schema(name)
	if err != nil {
		return nil, err
	}
	type change struct {
		oldKey []byte
		newKey []byte
		row    []byte
	}
	var changes []change
	err = db.scanMatching(tx, name, sc, st.where, func(key []byte, vals []Value) (bool, error) {
		newVals := append([]Value(nil), vals...)
		env := rowEnv(sc, vals)
		for col, e := range st.set {
			idx, ok := sc.colIndex(col)
			if !ok {
				return false, fmt.Errorf("sql: unknown column %q", col)
			}
			v, err := evalExpr(e, env)
			if err != nil {
				return false, err
			}
			v, err = coerce(v, sc.columns[idx].typ)
			if err != nil {
				return false, fmt.Errorf("sql: column %q: %w", col, err)
			}
			newVals[idx] = v
		}
		newKey, err := encodeKey(newVals[sc.pkIdx])
		if err != nil {
			return false, err
		}
		changes = append(changes, change{oldKey: append([]byte(nil), key...),
			newKey: newKey, row: encodeRow(newVals)})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, ch := range changes {
		if string(ch.oldKey) != string(ch.newKey) {
			if _, exists, err := tx.Get(name, ch.newKey); err != nil {
				return nil, err
			} else if exists {
				return nil, errDuplicateKey
			}
			if err := tx.Delete(name, ch.oldKey); err != nil {
				return nil, err
			}
		}
		if err := tx.Put(name, ch.newKey, ch.row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(changes)}, nil
}

func (db *DB) runDelete(tx *engine.Tx, st *deleteStmt) (*Result, error) {
	name := db.phys(st.table)
	sc, err := db.schema(name)
	if err != nil {
		return nil, err
	}
	var keys [][]byte
	err = db.scanMatching(tx, name, sc, st.where, func(key []byte, _ []Value) (bool, error) {
		keys = append(keys, append([]byte(nil), key...))
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := tx.Delete(name, k); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(keys)}, nil
}

// --- expression evaluation ---

func evalBool(e expr, env func(string) (Value, error)) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := evalExpr(e, env)
	if err != nil {
		return false, err
	}
	switch v.Kind {
	case kindBool:
		return v.B, nil
	case kindNull:
		return false, nil
	default:
		return false, fmt.Errorf("sql: WHERE clause is not boolean (%v)", v.Kind)
	}
}

func evalExpr(e expr, env func(string) (Value, error)) (Value, error) {
	switch ex := e.(type) {
	case *literal:
		return ex.val, nil
	case *columnRef:
		if env == nil {
			return Value{}, fmt.Errorf("sql: column %q not allowed here", ex.name)
		}
		return env(ex.name)
	case *unaryExpr:
		v, err := evalExpr(ex.e, env)
		if err != nil {
			return Value{}, err
		}
		switch ex.op {
		case "NOT":
			if v.Kind == kindNull {
				return nullValue(), nil
			}
			if v.Kind != kindBool {
				return Value{}, errors.New("sql: NOT of non-boolean")
			}
			return boolValue(!v.B), nil
		case "-":
			switch v.Kind {
			case kindInt:
				return intValue(-v.I), nil
			case kindFloat:
				return floatValue(-v.F), nil
			case kindNull:
				return nullValue(), nil
			}
			return Value{}, errors.New("sql: unary minus of non-numeric")
		}
		return Value{}, fmt.Errorf("sql: unknown unary op %q", ex.op)
	case *binaryExpr:
		return evalBinary(ex, env)
	}
	return Value{}, fmt.Errorf("sql: unknown expression %T", e)
}

func evalBinary(ex *binaryExpr, env func(string) (Value, error)) (Value, error) {
	// AND/OR short-circuit.
	if ex.op == "AND" || ex.op == "OR" {
		l, err := evalExpr(ex.l, env)
		if err != nil {
			return Value{}, err
		}
		lb := l.Kind == kindBool && l.B
		if ex.op == "AND" && l.Kind == kindBool && !l.B {
			return boolValue(false), nil
		}
		if ex.op == "OR" && lb {
			return boolValue(true), nil
		}
		r, err := evalExpr(ex.r, env)
		if err != nil {
			return Value{}, err
		}
		if l.Kind == kindNull || r.Kind == kindNull {
			return nullValue(), nil
		}
		if l.Kind != kindBool || r.Kind != kindBool {
			return Value{}, fmt.Errorf("sql: %s of non-boolean", ex.op)
		}
		if ex.op == "AND" {
			return boolValue(l.B && r.B), nil
		}
		return boolValue(l.B || r.B), nil
	}

	l, err := evalExpr(ex.l, env)
	if err != nil {
		return Value{}, err
	}
	r, err := evalExpr(ex.r, env)
	if err != nil {
		return Value{}, err
	}
	switch ex.op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return nullValue(), nil // SQL three-valued logic
		}
		c, err := compare(l, r)
		if err != nil {
			return Value{}, err
		}
		switch ex.op {
		case "=":
			return boolValue(c == 0), nil
		case "!=":
			return boolValue(c != 0), nil
		case "<":
			return boolValue(c < 0), nil
		case "<=":
			return boolValue(c <= 0), nil
		case ">":
			return boolValue(c > 0), nil
		case ">=":
			return boolValue(c >= 0), nil
		}
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return nullValue(), nil
		}
		if l.Kind == kindText || r.Kind == kindText {
			if ex.op == "+" && l.Kind == kindText && r.Kind == kindText {
				return textValue(l.S + r.S), nil
			}
			return Value{}, fmt.Errorf("sql: arithmetic on text")
		}
		if l.Kind == kindInt && r.Kind == kindInt {
			switch ex.op {
			case "+":
				return intValue(l.I + r.I), nil
			case "-":
				return intValue(l.I - r.I), nil
			case "*":
				return intValue(l.I * r.I), nil
			case "/":
				if r.I == 0 {
					return Value{}, errors.New("sql: division by zero")
				}
				return intValue(l.I / r.I), nil
			}
		}
		lf, _ := l.asFloat()
		rf, _ := r.asFloat()
		switch ex.op {
		case "+":
			return floatValue(lf + rf), nil
		case "-":
			return floatValue(lf - rf), nil
		case "*":
			return floatValue(lf * rf), nil
		case "/":
			if rf == 0 {
				return Value{}, errors.New("sql: division by zero")
			}
			return floatValue(lf / rf), nil
		}
	}
	return Value{}, fmt.Errorf("sql: unknown operator %q", ex.op)
}
