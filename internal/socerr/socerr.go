// Package socerr defines the repo-wide error taxonomy: a small set of
// sentinel errors that every tier wraps (with fmt.Errorf("...: %w", ...))
// so callers classify failures with errors.Is / errors.As instead of
// matching message strings. The package sits below every tier — it may
// import nothing but the standard library — so compute, xlog,
// pageserver, rbio, and cluster can all share the same vocabulary
// without import cycles.
package socerr

import (
	"context"
	"errors"
	"fmt"
)

// Sentinels. Tier packages wrap these into their own named errors (e.g.
// logwriter.ErrWriterClosed wraps ErrClosed) so both the tier-specific and
// the generic classification succeed under errors.Is.
var (
	// ErrTimeout marks an operation that gave up waiting: replication
	// catch-up, landing-zone reservation, harden waits, RBIO deadlines.
	ErrTimeout = errors.New("socrates: timeout")

	// ErrClosed marks use of a component after shutdown or crash.
	ErrClosed = errors.New("socrates: closed")

	// ErrNoSecondary marks cluster operations that need a secondary
	// replica when none (or no matching one) exists.
	ErrNoSecondary = errors.New("socrates: no secondary")

	// ErrBackpressure marks a request rejected because an rbio.Client's
	// in-flight cap and bounded wait queue were both full. It is a
	// fail-fast signal: the fabric is saturated and queueing more work
	// would only grow latency, so callers shed load or retry at their
	// own cadence rather than piling up goroutines.
	ErrBackpressure = errors.New("socrates: backpressure")
)

// Timeoutf builds an ErrTimeout-classified error.
func Timeoutf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTimeout, fmt.Sprintf(format, args...))
}

// FromContext classifies a context error: deadline expiry becomes
// ErrTimeout (still matching context.DeadlineExceeded via the wrap);
// cancellation passes through unchanged; nil stays nil.
func FromContext(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return err
}
