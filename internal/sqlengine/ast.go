package sqlengine

import "fmt"

// colType is a column's declared type.
type colType int

// Column types.
const (
	typeInt colType = iota
	typeFloat
	typeText
)

func (t colType) String() string {
	switch t {
	case typeInt:
		return "INT"
	case typeFloat:
		return "FLOAT"
	case typeText:
		return "TEXT"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// column is one column definition.
type column struct {
	name string
	typ  colType
	pk   bool
}

// statement is any parsed SQL statement.
type statement interface{ stmt() }

// createTableStmt creates a table.
type createTableStmt struct {
	table   string
	columns []column
}

// dropTableStmt drops a table.
type dropTableStmt struct{ table string }

// insertStmt inserts rows.
type insertStmt struct {
	table   string
	columns []string // empty = declared order
	rows    [][]expr
}

// selectStmt queries rows.
type selectStmt struct {
	table   string
	items   []selectItem // empty + Star for SELECT *
	star    bool
	where   expr // nil = all rows
	orderBy string
	desc    bool
	limit   int // -1 = unlimited
}

// selectItem is one projection: a column or an aggregate.
type selectItem struct {
	expr  expr
	alias string
	agg   string // "", COUNT, SUM, AVG, MIN, MAX
	star  bool   // COUNT(*)
}

// updateStmt updates rows.
type updateStmt struct {
	table string
	set   map[string]expr
	where expr
}

// deleteStmt deletes rows.
type deleteStmt struct {
	table string
	where expr
}

// Transaction control and introspection statements.
type (
	beginStmt      struct{}
	commitStmt     struct{}
	rollbackStmt   struct{}
	showTablesStmt struct{}
)

func (*createTableStmt) stmt() {}
func (*dropTableStmt) stmt()   {}
func (*insertStmt) stmt()      {}
func (*selectStmt) stmt()      {}
func (*updateStmt) stmt()      {}
func (*deleteStmt) stmt()      {}
func (*beginStmt) stmt()       {}
func (*commitStmt) stmt()      {}
func (*rollbackStmt) stmt()    {}
func (*showTablesStmt) stmt()  {}

// expr is an expression tree node.
type expr interface{ expr() }

// columnRef references a column by name.
type columnRef struct{ name string }

// literal is a constant value.
type literal struct{ val Value }

// binaryExpr applies an operator to two operands.
type binaryExpr struct {
	op   string // = != < <= > >= AND OR + - * /
	l, r expr
}

// unaryExpr applies NOT or unary minus.
type unaryExpr struct {
	op string // NOT, -
	e  expr
}

func (*columnRef) expr()  {}
func (*literal) expr()    {}
func (*binaryExpr) expr() {}
func (*unaryExpr) expr()  {}
