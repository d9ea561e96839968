// Package multiline is the regression fixture for directive attachment to
// statements that span lines: the annotation sits above the statement,
// while the node a pass flags starts on a continuation line.
package multiline

import "fmt"

// Table builds a slice whose flaggable call is buried two lines below the
// statement's first line.
func Table(id int) []string {
	//socrates:sleep-ok reviewed continuation-line coverage fixture
	out := []string{
		"head",
		fmt.Sprintf("id-%d", id),
	}
	return out
}

// Stacked carries two directives above one statement; both must bind, so
// a pass checking for either name sees its annotation regardless of
// stacking order.
func Stacked(id int) string {
	//socrates:sleep-ok the farther directive in the stack still binds
	//socrates:ignore-err stacked-directive regression fixture
	s := fmt.Sprintf("id-%d", id)
	return s
}

// Uncovered has the same shape with no annotation: the negative case.
func Uncovered(id int) []string {
	out := []string{
		"head",
		fmt.Sprintf("id-%d", id),
	}
	return out
}
