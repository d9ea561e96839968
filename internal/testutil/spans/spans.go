// Package spans holds the span-tree lookups that test suites outside
// internal/obs share. It is not part of internal/testutil itself because
// obs's own tests import testutil, and testutil must not import obs.
package spans

import (
	"time"

	"socrates/internal/obs"
)

// Find returns the first node named name in a pre-order walk of the
// subtree under n (nil if absent).
func Find(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil || n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := Find(c, name); m != nil {
			return m
		}
	}
	return nil
}

// WaitTotals is n's wait time by class (nil n: none).
func WaitTotals(n *obs.SpanNode) map[string]time.Duration {
	out := map[string]time.Duration{}
	if n != nil {
		for _, w := range n.Waits {
			out[w.Class] += time.Duration(w.TotalNS)
		}
	}
	return out
}
