package rbpex

import "socrates/internal/page"

// protectedShare is the part of a tier, in quarters, that pages referenced at
// least twice may hold (DESIGN §20.2; the replay in admission_test.go is where
// the value comes from).
const protectedShare = 3

// node is one entry's place in its tier's replacement order. It lives inside
// the entry: moving an entry never allocates.
type node struct {
	id         page.ID
	prev, next *node
	// protected says the node is in the protected segment now; wasProtected,
	// that it has been at some point of this stay in the tier.
	protected, wasProtected bool
}

// segLRU is the replacement order of one tier, most recent first: a protected
// segment, a boundary, a probationary segment. A page enters on probation; a
// further reference moves it to the head of the protected segment, whose
// overflow falls back to the head of probation; victims come from the
// probation tail. One pass over any number of pages therefore turns over the
// probationary segment and nothing else.
type segLRU struct {
	root, bound   node // ring sentinel; the boundary between the segments
	prot, protCap int
}

func (s *segLRU) init(capacity int) {
	s.root.next, s.root.prev = &s.bound, &s.bound
	s.bound.next, s.bound.prev = &s.root, &s.root
	s.protCap = capacity * protectedShare / 4
}

func (n *node) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}

func (n *node) linkAfter(at *node) {
	n.prev, n.next = at, at.next
	at.next.prev = n
	at.next = n
}

// admit links a new entry: at the head of probation, or — a page that comes
// with a second reference to its name — of the protected segment.
func (s *segLRU) admit(n *node, protected bool) {
	n.linkAfter(&s.bound)
	if protected {
		s.touch(n)
	}
}

// touch records a further reference to n.
func (s *segLRU) touch(n *node) {
	n.unlink()
	n.linkAfter(&s.root)
	if n.protected {
		return
	}
	n.protected, n.wasProtected = true, true
	if s.prot++; s.prot > s.protCap {
		tail := s.bound.prev // n itself in a tier too small to protect anything
		tail.unlink()
		tail.linkAfter(&s.bound)
		tail.protected = false
		s.prot--
	}
}

// refresh moves n to the head of the segment it is in: the page was seen
// again, but not asked for.
func (s *segLRU) refresh(n *node) {
	n.unlink()
	if n.protected {
		n.linkAfter(&s.root)
	} else {
		n.linkAfter(&s.bound)
	}
}

func (s *segLRU) remove(n *node) {
	n.unlink()
	if n.protected {
		n.protected = false
		s.prot--
	}
}

// victim returns the entry next in line for eviction after n — from the tail
// of probation to the head of the protected segment — or nil at the end;
// victim(nil) is the first in line.
func (s *segLRU) victim(n *node) *node {
	if n == nil {
		n = &s.root
	}
	if n = n.prev; n == &s.bound {
		n = n.prev
	}
	if n == &s.root {
		return nil
	}
	return n
}
