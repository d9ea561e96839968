// Package clean is the directive fixture whose every waiver suppresses a
// finding, on a statement and in a doc comment.
package clean

import "time"

// LSN is a log sequence number.
type LSN uint64

// Backoff sleeps on purpose.
func Backoff() {
	//socrates:sleep-ok retry backoff against a remote peer is the semantics
	time.Sleep(time.Millisecond)
}

// Next steps an LSN with one reviewed raw add.
func Next(l LSN) LSN {
	return l + 1 //socrates:lsn-ok reviewed raw add in the fixture
}

// Behind is an approved watermark helper.
//
//socrates:lsn-helper reviewed ordering helper in the fixture
func Behind(a, b LSN) bool { return a < b }

// Hot opts in to waitlint's hot-path lock check; an opt-in waives nothing
// and is never stale.
//
//socrates:hotpath fixture hot path
func Hot() {}
