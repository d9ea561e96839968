// Package main is the fixture of TestTestOnlySurfaceRules: one case per
// rule by which the test-only scan counts a function or method as reached,
// or a field or package-level variable as read. Its uses of package lib
// are the outside uses of TestOwnPackageSurfaceRules.
package main

import (
	"fmt"

	"reach/lib"
)

// Direct is reached by a call.
func Direct() {}

// Rec carries a field that shares its name with the function Applied.
type Rec struct{ Applied int }

// Value is reached as a method value.
func (r *Rec) Value() int { return r.Applied }

// Promoted is reached through Outer's embedded *Rec.
func (r *Rec) Promoted() {}

// Sized is reached only because *Rec satisfies Sizer.
func (r *Rec) Sized() int { return 1 }

// String is reached by fmt, which no code names it for.
func (r Rec) String() string { return "rec" }

// Outer embeds *Rec.
type Outer struct{ *Rec }

// Sizer is an interface of the module.
type Sizer interface{ Sized() int }

func size(s Sizer) int { return s.Sized() }

// Row re-exports lib.Row.
type Row = lib.Row

// Box is generic; Get is reached through an instantiation.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.v }

// Applied is named nowhere but by Rec's field of the same name: the scan
// lists it.
func Applied() int { return 0 }

// countdown calls only itself: the scan lists it.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// decodeKey is called only from reach_test.go: the scan lists it.
func decodeKey(b []byte) string { return string(b) }

// Stats has one field per rule by which the scan counts a field as read.
type Stats struct {
	Hits   int   // read by a selector
	Misses int   // only assigned and incremented: the scan lists it
	Keyed  int   // only the key of a composite literal: the scan lists it
	Addr   int   // read by &
	Inner  Rec   // read as the base of a selector whose field is assigned
	Via    *Rec  // assigned, and read by a method call through it
	Slots  []int // read as the base of an index expression that is assigned
	Tagged int   `json:"tagged"` // read by encoding/json
	tested int   // read only by reach_test.go: the scan lists it
}

var (
	limit     = 3 // read
	lastSeen  int // only assigned: the scan lists it
	testedVar int // read only by reach_test.go: the scan lists it
)

func main() {
	Direct()
	value := (&Rec{}).Value
	o := Outer{&Rec{}}
	o.Promoted()
	fmt.Println(value(), size(o.Rec), Rec{}, Box[int]{v: 1}.Get(), o.Applied)

	s := Stats{Keyed: 1, Via: &Rec{}, Slots: make([]int, 1)}
	s.Misses = 1
	s.Misses++
	s.Inner.Applied = 2
	s.Via.Promoted()
	s.Slots[0] = 3
	lastSeen = limit
	for _, lastSeen = range []int{4} {
	}
	fmt.Println(s.Hits, &s.Addr, size(lib.Used()), lib.Counter{}.Hits)
}
