// Package bad is the directive-validation fixture.
package bad

import "time"

// Annotated carries one unknown directive and one reason-less known one.
func Annotated() int {
	//socrates:ignroe-err typo'd name is flagged as unknown
	x := 1
	//socrates:sleep-ok
	time.Sleep(time.Millisecond)
	return x
}

// Stale carries a waiver above a line its pass never flags: it suppresses
// nothing.
func Stale() int {
	//socrates:sleep-ok x
	return 1
}
