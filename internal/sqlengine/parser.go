package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse compiles one SQL statement (an optional trailing semicolon is
// allowed). Its tokens live in an array in this frame; only a statement
// of more than len(buf)-1 tokens spills them to the heap.
//
//socrates:hotpath every SQL statement parses here; TestParseAllocs
func Parse(src string) (statement, error) {
	var buf [32]token
	toks, err := lex(src, buf[:0])
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

// at is t's position as error messages give it: a rune index.
func (p *parser) at(t token) int { return runeIndex(p.src, t.pos) }

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tkEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

// accept consumes the next token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.peek()
	if t.kind != kind || (text != "" && t.text != text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return token{}, fmt.Errorf("sql: expected %s, got %q at %d", want, t.text, p.at(t))
	}
	return p.advance(), nil
}

func (p *parser) keyword(kw string) bool { return p.accept(tkKeyword, kw) }

func (p *parser) ident() (string, error) {
	t, err := p.expect(tkIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) statement() (statement, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return nil, fmt.Errorf("sql: expected statement, got %q", t.text)
	}
	switch t.text {
	case "CREATE":
		return p.createTable()
	case "DROP":
		return p.dropTable()
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.delete()
	case "BEGIN":
		p.advance()
		return &beginStmt{}, nil
	case "COMMIT":
		p.advance()
		return &commitStmt{}, nil
	case "ROLLBACK":
		p.advance()
		return &rollbackStmt{}, nil
	case "SHOW":
		p.advance()
		if _, err := p.expect(tkKeyword, "TABLES"); err != nil {
			return nil, err
		}
		return &showTablesStmt{}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement %q", t.text)
	}
}

func (p *parser) createTable() (statement, error) {
	p.advance() // CREATE
	if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	stmt := &createTableStmt{table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ty := p.advance()
		if ty.kind != tkKeyword {
			return nil, fmt.Errorf("sql: expected column type, got %q", ty.text)
		}
		var ct colType
		switch ty.text {
		case "INT":
			ct = typeInt
		case "FLOAT":
			ct = typeFloat
		case "TEXT":
			ct = typeText
		default:
			return nil, fmt.Errorf("sql: unknown type %q", ty.text)
		}
		c := column{name: col, typ: ct}
		if p.keyword("PRIMARY") {
			if _, err := p.expect(tkKeyword, "KEY"); err != nil {
				return nil, err
			}
			c.pk = true
		}
		stmt.columns = append(stmt.columns, c)
		if p.accept(tkSymbol, ",") {
			continue
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	return stmt, nil
}

func (p *parser) dropTable() (statement, error) {
	p.advance() // DROP
	if _, err := p.expect(tkKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &dropTableStmt{table: name}, nil
}

func (p *parser) insert() (statement, error) {
	p.advance() // INSERT
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &insertStmt{table: name}
	if p.accept(tkSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.columns = append(stmt.columns, col)
			if p.accept(tkSymbol, ",") {
				continue
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var row []expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tkSymbol, ",") {
				continue
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		stmt.rows = append(stmt.rows, row)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) selectStmt() (statement, error) {
	p.advance() // SELECT
	stmt := &selectStmt{limit: -1}
	if p.accept(tkSymbol, "*") {
		stmt.star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			stmt.items = append(stmt.items, item)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.table = name
	if p.keyword("WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.where = e
	}
	if p.keyword("ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.orderBy = col
		if p.keyword("DESC") {
			stmt.desc = true
		} else {
			p.keyword("ASC")
		}
	}
	if p.keyword("LIMIT") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		stmt.limit = n
	}
	return stmt, nil
}

var aggregates = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) selectItem() (selectItem, error) {
	t := p.peek()
	if t.kind == tkKeyword && aggregates[t.text] {
		p.advance()
		item := selectItem{agg: t.text}
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return item, err
		}
		if p.accept(tkSymbol, "*") {
			if t.text != "COUNT" {
				return item, fmt.Errorf("sql: %s(*) is not valid", t.text)
			}
			item.star = true
		} else {
			e, err := p.expression()
			if err != nil {
				return item, err
			}
			item.expr = e
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return item, err
		}
		if p.keyword("AS") {
			alias, err := p.ident()
			if err != nil {
				return item, err
			}
			item.alias = alias
		}
		return item, nil
	}
	e, err := p.expression()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{expr: e}
	if p.keyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return item, err
		}
		item.alias = alias
	}
	return item, nil
}

func (p *parser) update() (statement, error) {
	p.advance() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	stmt := &updateStmt{table: name, set: map[string]expr{}}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.set[col] = e
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.keyword("WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.where = e
	}
	return stmt, nil
}

func (p *parser) delete() (statement, error) {
	p.advance() // DELETE
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &deleteStmt{table: name}
	if p.keyword("WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		stmt.where = e
	}
	return stmt, nil
}

// expression parses with precedence: OR < AND < NOT < comparison < add < mul.
func (p *parser) expression() (expr, error) { return p.orExpr() }

func (p *parser) orExpr() (expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "OR", l: l, r: r}
	}
	return l, nil
}

func (p *parser) andExpr() (expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &binaryExpr{op: "AND", l: l, r: r}
	}
	return l, nil
}

func (p *parser) notExpr() (expr, error) {
	if p.keyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "NOT", e: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.keyword("BETWEEN") {
		// x BETWEEN a AND b is x >= a AND x <= b; the bounds bind tighter
		// than the AND between them.
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if !p.keyword("AND") {
			return nil, fmt.Errorf("sql: BETWEEN needs AND at %d", p.at(p.peek()))
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &binaryExpr{op: "AND",
			l: &binaryExpr{op: ">=", l: l, r: lo},
			r: &binaryExpr{op: "<=", l: l, r: hi}}, nil
	}
	t := p.peek()
	if t.kind == tkSymbol {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &binaryExpr{op: t.text, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkSymbol && (t.text == "+" || t.text == "-") {
			p.advance()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkSymbol && (t.text == "*" || t.text == "/") {
			p.advance()
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &binaryExpr{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) primary() (expr, error) {
	t := p.peek()
	switch {
	case t.kind == tkNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.text)
			}
			return &literal{val: floatValue(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.text)
		}
		return &literal{val: intValue(n)}, nil

	case t.kind == tkString:
		p.advance()
		return &literal{val: textValue(t.text)}, nil

	case t.kind == tkKeyword && t.text == "NULL":
		p.advance()
		return &literal{val: nullValue()}, nil

	case t.kind == tkIdent:
		p.advance()
		return &columnRef{name: t.text}, nil

	case t.kind == tkSymbol && t.text == "(":
		p.advance()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.kind == tkSymbol && t.text == "-":
		p.advance()
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{op: "-", e: e}, nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q at %d", t.text, p.at(t))
}
