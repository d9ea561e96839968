package wal

import (
	"sync"

	"socrates/internal/page"
)

// Logger is the engine's handle to the log: Append assigns the record its
// LSN and stages it for durability. On the Socrates primary the Logger is
// the log writer feeding the landing zone; on HADR it feeds local log +
// replication; in tests it is a MemLog.
type Logger interface {
	Append(*Record) page.LSN
}

// MemLog is an in-memory Logger for tests and scratch replay engines: it
// assigns dense LSNs starting at 1 and retains every record.
type MemLog struct {
	mu   sync.Mutex
	recs []*Record
	next page.LSN
}

// NewMemLog returns an empty log whose first LSN is 1.
func NewMemLog() *MemLog { return &MemLog{next: 1} }

// Append assigns the next LSN and retains the record.
func (l *MemLog) Append(r *Record) page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.next
	l.next = l.next.Next()
	l.recs = append(l.recs, r)
	return r.LSN
}

// NextLSN reports the LSN the next record will receive.
func (l *MemLog) NextLSN() page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Since returns records with LSN >= from, in order.
func (l *MemLog) Since(from page.LSN) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Record
	for _, r := range l.recs {
		if r.LSN.AtLeast(from) {
			out = append(out, r)
		}
	}
	return out
}
