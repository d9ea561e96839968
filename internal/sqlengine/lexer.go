// Package sqlengine provides the SQL front end of the Socrates
// reproduction: a small dialect (CREATE/DROP TABLE, INSERT, SELECT with
// WHERE/ORDER BY/LIMIT and aggregates, UPDATE, DELETE, BEGIN/COMMIT/
// ROLLBACK) compiled onto the storage engine's transactional API. The paper
// reuses SQL Server's query processor unchanged (§4.1.6); this package
// plays that role at reproduction scale.
package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int
}

// keywords recognized by the dialect.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"DROP": true, "TABLE": true, "PRIMARY": true, "KEY": true, "AND": true,
	"OR": true, "NOT": true, "ORDER": true, "BY": true, "ASC": true,
	"DESC": true, "LIMIT": true, "INT": true, "FLOAT": true, "TEXT": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "COUNT": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "NULL": true,
	"AS": true, "SHOW": true, "TABLES": true, "BETWEEN": true,
}

type lexer struct {
	src []rune
	pos int
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src)}
	var toks []token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tkEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tkEOF, pos: l.pos}, nil
	}
	start := l.pos
	ch := l.src[l.pos]
	switch {
	case unicode.IsLetter(ch) || ch == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) ||
			unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
			l.pos++
		}
		word := string(l.src[start:l.pos])
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tkKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tkIdent, text: word, pos: start}, nil

	case unicode.IsDigit(ch) || (ch == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1]) && l.numericContext()):
		if ch == '-' {
			l.pos++
		}
		seenDot := false
		for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || (l.src[l.pos] == '.' && !seenDot)) {
			if l.src[l.pos] == '.' {
				seenDot = true
			}
			l.pos++
		}
		return token{kind: tkNumber, text: string(l.src[start:l.pos]), pos: start}, nil

	case ch == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteRune('\'') // escaped quote
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tkString, text: sb.String(), pos: start}, nil
			}
			sb.WriteRune(c)
			l.pos++
		}
		return token{}, fmt.Errorf("sql: unterminated string at %d", start)

	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = string(l.src[l.pos : l.pos+2])
		}
		switch two {
		case "<=", ">=", "!=", "<>":
			l.pos += 2
			if two == "<>" {
				two = "!="
			}
			return token{kind: tkSymbol, text: two, pos: start}, nil
		}
		switch ch {
		case '(', ')', ',', '*', '=', '<', '>', '+', '-', '/', ';', '.':
			l.pos++
			return token{kind: tkSymbol, text: string(ch), pos: start}, nil
		}
		return token{}, fmt.Errorf("sql: unexpected character %q at %d", ch, start)
	}
}

// numericContext reports whether a '-' should bind to a number (crude:
// always treat as operator; the parser handles unary minus). Kept for
// clarity — returns false so '-' lexes as a symbol.
func (l *lexer) numericContext() bool { return false }
