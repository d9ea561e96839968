// Package lib is the second package of the fixture: one case per rule by
// which the own-package scan lists an exported name or leaves it out.
package lib

// Used is called by package main: not listed.
func Used() *Counter { return &Counter{Home: HomeOnly()} }

// Counter is named by package main: not listed.
type Counter struct {
	Hits   int // read by package main: not listed
	Home   int // read only in lib: listed
	Tagged int `json:"tagged"` // tagged, so encoding/json may read it: not listed
}

// Sized is required by package main's Sizer: not listed.
func (c *Counter) Sized() int { return c.Home + c.Tagged }

// Row is re-exported by package main's alias, so Row.Cell is not listed.
type Row struct{ Cell int }

// HomeOnly is called only in lib: listed.
func HomeOnly() int { return TestedOnly + Row{}.Cell }

// TestedOnly is named outside lib only by package main's test: listed.
const TestedOnly = 1
