package sqlengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates runtime values.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindText
	KindBool // expression-internal only; not storable
)

// Value is a runtime SQL value.
type Value struct {
	Kind ValueKind
	I    int64
	F    float64
	S    string
	B    bool
}

// Constructors.
func NullValue() Value           { return Value{Kind: KindNull} }
func IntValue(i int64) Value     { return Value{Kind: KindInt, I: i} }
func FloatValue(f float64) Value { return Value{Kind: KindFloat, F: f} }
func TextValue(s string) Value   { return Value{Kind: KindText, S: s} }
func BoolValue(b bool) Value     { return Value{Kind: KindBool, B: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for result display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("value(%d)", v.Kind)
	}
}

// asFloat coerces numerics to float64.
func (v Value) asFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// Compare orders two values: -1, 0, +1. NULLs sort first; mismatched kinds
// coerce numerically when possible.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.Kind == KindText && b.Kind == KindText {
		return strings.Compare(a.S, b.S), nil
	}
	af, aok := a.asFloat()
	bf, bok := b.asFloat()
	if aok && bok {
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("sql: cannot compare %v and %v", a.Kind, b.Kind)
}

// --- row and key encoding ---

// ErrRowCodec reports a corrupt row payload.
var ErrRowCodec = errors.New("sql: corrupt row encoding")

// encodeRow serializes values per column: tag byte + payload.
func encodeRow(vals []Value) []byte {
	var buf []byte
	for _, v := range vals {
		switch v.Kind {
		case KindNull:
			buf = append(buf, 0)
		case KindInt:
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
		case KindFloat:
			buf = append(buf, 2)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case KindText:
			buf = append(buf, 3)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
			buf = append(buf, v.S...)
		}
	}
	return buf
}

// decodeRow parses exactly n column values.
func decodeRow(buf []byte, n int) ([]Value, error) {
	vals := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 1 {
			return nil, ErrRowCodec
		}
		tag := buf[0]
		buf = buf[1:]
		switch tag {
		case 0:
			vals = append(vals, NullValue())
		case 1:
			if len(buf) < 8 {
				return nil, ErrRowCodec
			}
			vals = append(vals, IntValue(int64(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case 2:
			if len(buf) < 8 {
				return nil, ErrRowCodec
			}
			vals = append(vals, FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case 3:
			if len(buf) < 4 {
				return nil, ErrRowCodec
			}
			n := int(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
			if len(buf) < n {
				return nil, ErrRowCodec
			}
			vals = append(vals, TextValue(string(buf[:n])))
			buf = buf[n:]
		default:
			return nil, ErrRowCodec
		}
	}
	if len(buf) != 0 {
		return nil, ErrRowCodec
	}
	return vals, nil
}

// encodeKey produces an order-preserving byte encoding of a primary-key
// value: INTs compare numerically, TEXT lexically.
func encodeKey(v Value) ([]byte, error) {
	switch v.Kind {
	case KindInt:
		var b [9]byte
		b[0] = 1
		// Flip the sign bit so two's-complement order becomes byte order.
		binary.BigEndian.PutUint64(b[1:], uint64(v.I)^(1<<63))
		return b[:], nil
	case KindFloat:
		var b [9]byte
		b[0] = 2
		bits := math.Float64bits(v.F)
		if v.F >= 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		binary.BigEndian.PutUint64(b[1:], bits)
		return b[:], nil
	case KindText:
		return append([]byte{3}, v.S...), nil
	default:
		return nil, fmt.Errorf("sql: %v is not a valid primary key", v.Kind)
	}
}

// --- schema encoding (stored in the __schema system table) ---

type schema struct {
	Columns []Column
	pkIdx   int
}

func (s *schema) colIndex(name string) (int, bool) {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i, true
		}
	}
	return 0, false
}

func encodeSchema(cols []Column) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cols)))
	for _, c := range cols {
		buf = append(buf, byte(c.Type))
		if c.PK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Name)))
		buf = append(buf, c.Name...)
	}
	return buf
}

func decodeSchema(buf []byte) (*schema, error) {
	if len(buf) < 2 {
		return nil, ErrRowCodec
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	s := &schema{pkIdx: -1}
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, ErrRowCodec
		}
		c := Column{Type: ColType(buf[0]), PK: buf[1] == 1}
		ln := int(binary.LittleEndian.Uint16(buf[2:4]))
		buf = buf[4:]
		if len(buf) < ln {
			return nil, ErrRowCodec
		}
		c.Name = string(buf[:ln])
		buf = buf[ln:]
		if c.PK {
			s.pkIdx = i
		}
		s.Columns = append(s.Columns, c)
	}
	if s.pkIdx < 0 {
		return nil, errors.New("sql: schema lacks a primary key")
	}
	return s, nil
}
