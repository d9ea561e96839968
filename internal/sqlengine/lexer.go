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
	"unicode/utf8"
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
	text string // keywords upper-cased; everything else a slice of the source
	pos  int    // byte offset in the source; runeIndex converts it for messages
}

// maxKeywordLen is the longest keyword's length: an ASCII word longer than
// it is never a keyword.
const maxKeywordLen = 8

// keywords maps each keyword of the dialect to itself, so a keyword token
// holds the table's string rather than a copy of the word.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE INSERT INTO VALUES UPDATE SET DELETE CREATE
		DROP TABLE PRIMARY KEY AND OR NOT ORDER BY ASC DESC LIMIT INT
		FLOAT TEXT BEGIN COMMIT ROLLBACK COUNT SUM AVG MIN MAX NULL AS
		SHOW TABLES BETWEEN`) {
		if len(kw) > maxKeywordLen {
			panic("sqlengine: keyword " + kw + " is longer than maxKeywordLen")
		}
		m[kw] = kw
	}
	return m
}()

// keyword returns the keyword word spells in any case, if it spells one.
// An ASCII word is upper-cased into a stack buffer; a word with any other
// byte goes through strings.ToUpper, which also maps 'ſ' to 'S' and 'ı'
// to 'I'.
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
		if i < len(buf) {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
	}
	if len(word) > len(buf) {
		return "", false
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// lexer reads the source's bytes. A byte below utf8.RuneSelf is its own
// rune; anything else is decoded, U+FFFD for each invalid byte, so the
// unicode classes see the runes []rune(src) would hold.
type lexer struct {
	src string
	pos int
}

// lex appends src's tokens to toks, tkEOF last.
func lex(src string, toks []token) ([]token, error) {
	l := lexer{src: src}
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

// runeIndex converts the byte offset pos of src to the rune index error
// messages report.
func runeIndex(src string, pos int) int { return utf8.RuneCountInString(src[:pos]) }

// runeAt decodes the rune at byte offset i and its width in bytes.
func (l *lexer) runeAt(i int) (rune, int) {
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

// next lexes the token at l.pos and moves past it.
//
//socrates:hotpath every SQL statement lexes through it; TestParseAllocs
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		r, w := l.runeAt(l.pos)
		if !unicode.IsSpace(r) {
			break
		}
		l.pos += w
	}
	if l.pos >= len(l.src) {
		return token{kind: tkEOF, pos: l.pos}, nil
	}
	start := l.pos
	ch, w := l.runeAt(start)
	switch {
	case unicode.IsLetter(ch) || ch == '_':
		for l.pos < len(l.src) {
			r, w := l.runeAt(l.pos)
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
				break
			}
			l.pos += w
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			return token{kind: tkKeyword, text: kw, pos: start}, nil
		}
		return token{kind: tkIdent, text: word, pos: start}, nil

	case unicode.IsDigit(ch):
		seenDot := false
		for l.pos < len(l.src) {
			r, w := l.runeAt(l.pos)
			if r == '.' && !seenDot {
				seenDot = true
			} else if !unicode.IsDigit(r) {
				break
			}
			l.pos += w
		}
		return token{kind: tkNumber, text: l.src[start:l.pos], pos: start}, nil

	case ch == '\'':
		return l.str(start)
	}
	// Multi-char operators first.
	if start+1 < len(l.src) {
		switch two := l.src[start : start+2]; two {
		case "<=", ">=", "!=", "<>":
			l.pos += 2
			if two == "<>" {
				two = "!="
			}
			return token{kind: tkSymbol, text: two, pos: start}, nil
		}
	}
	switch ch {
	case '(', ')', ',', '*', '=', '<', '>', '+', '-', '/', ';', '.':
		l.pos += w
		return token{kind: tkSymbol, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at %d", ch, runeIndex(l.src, start))
}

// str lexes the string literal whose quote is at start. Its text is the
// source between the quotes; only a literal holding a doubled quote or an
// invalid byte is rebuilt, by strEscaped.
func (l *lexer) str(start int) (token, error) {
	for i := start + 1; i < len(l.src); {
		r, w := l.runeAt(i)
		switch {
		case r == '\'' && i+1 < len(l.src) && l.src[i+1] == '\'':
			return l.strEscaped(start)
		case r == '\'':
			l.pos = i + 1
			return token{kind: tkString, text: l.src[start+1 : i], pos: start}, nil
		case r == utf8.RuneError && w == 1:
			return l.strEscaped(start)
		}
		i += w
	}
	return token{}, fmt.Errorf("sql: unterminated string at %d", runeIndex(l.src, start))
}

// strEscaped builds the text of the literal whose quote is at start: a
// doubled quote reads as one, an invalid byte as U+FFFD.
func (l *lexer) strEscaped(start int) (token, error) {
	var sb strings.Builder
	for i := start + 1; i < len(l.src); {
		r, w := l.runeAt(i)
		if r == '\'' {
			if i+1 < len(l.src) && l.src[i+1] == '\'' {
				sb.WriteByte('\'')
				i += 2
				continue
			}
			l.pos = i + 1
			return token{kind: tkString, text: sb.String(), pos: start}, nil
		}
		sb.WriteRune(r)
		i += w
	}
	return token{}, fmt.Errorf("sql: unterminated string at %d", runeIndex(l.src, start))
}
