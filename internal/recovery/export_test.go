package recovery

import (
	"context"
	"testing"
)

// SetRetryWait makes wait stand in for every failed-pull back-off until the
// test ends.
func SetRetryWait(t testing.TB, wait func(ctx context.Context)) {
	retryWait.Store(&wait)
	t.Cleanup(func() { retryWait.Store(nil) })
}
