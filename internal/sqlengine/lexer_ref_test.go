package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

// refLexer is the rune lexer lex replaced, frozen as FuzzLex's reference:
// it reads []rune(src), copies every token's text, upper-cases every word
// with strings.ToUpper and reports positions as rune indexes. Its only
// edit is the deleted '-'-starts-a-number branch, which its guard
// (always false) never let run.
type refLexer struct {
	src []rune
	pos int
}

func refLex(src string) ([]token, error) {
	l := &refLexer{src: []rune(src)}
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

func (l *refLexer) next() (token, error) {
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
		if _, ok := keywords[upper]; ok {
			return token{kind: tkKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tkIdent, text: word, pos: start}, nil

	case unicode.IsDigit(ch):
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
