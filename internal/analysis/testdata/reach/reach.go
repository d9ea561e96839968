// Package main is the fixture of TestTestOnlySurfaceRules: one case per
// rule by which the test-only scan counts a function or method as reached.
package main

import "fmt"

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

func main() {
	Direct()
	value := (&Rec{}).Value
	o := Outer{&Rec{}}
	o.Promoted()
	fmt.Println(value(), size(o.Rec), Rec{}, Box[int]{v: 1}.Get(), o.Applied)
}
