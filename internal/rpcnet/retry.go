package rpcnet

import (
	"context"
	"errors"
	"time"
)

// RetryPolicy bounds the retry loop CallRetry runs around a transport
// failure. Retries are for idempotent requests only — the caller asserts
// idempotency by choosing CallRetry; the policy just shapes the loop.
type RetryPolicy struct {
	// Attempts is the total number of tries (first call included); values
	// below 1 behave as 1, i.e. no retry.
	Attempts int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it. Zero selects 10ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Zero selects 1s.
	MaxBackoff time.Duration
}

// Enabled reports whether the policy allows at least one retry.
func (p RetryPolicy) Enabled() bool { return p.Attempts > 1 }

func (p RetryPolicy) backoff() time.Duration {
	if p.Backoff <= 0 {
		return 10 * time.Millisecond
	}
	return p.Backoff
}

func (p RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return time.Second
	}
	return p.MaxBackoff
}

// ContextCaller is the client surface CallRetry drives: MuxConn and
// MuxClient provide it. A MuxClient is the natural fit — it redials after
// poisoning, so the retry that follows a daemon restart lands on a fresh
// connection.
type ContextCaller interface {
	CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error)
}

// retriable decides whether an error is worth another attempt: transport
// faults (resets, timeouts, refused dials against a restarting daemon) are;
// application errors are clean frames from a healthy server and context
// cancellation/expiry is the caller giving up — retrying either would
// re-execute on purpose what already completed or was abandoned.
func retriable(err error) bool {
	var remote *RemoteError
	if errors.As(err, &remote) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// CallRetry issues an idempotent call with bounded retry-with-backoff:
// transport failures are retried up to the policy's attempt budget with
// exponentially growing, context-interruptible sleeps between tries. The
// caller is responsible for only routing idempotent requests here — a
// retried non-idempotent mutation could execute twice when the first
// attempt's response (not its execution) is what got lost.
func CallRetry(ctx context.Context, c ContextCaller, p RetryPolicy, msgType uint8, payload []byte) ([]byte, error) {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := p.backoff()
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			if backoff *= 2; backoff > p.maxBackoff() {
				backoff = p.maxBackoff()
			}
		}
		var resp []byte
		resp, err = c.CallContext(ctx, msgType, payload)
		if err == nil {
			return resp, nil
		}
		if !retriable(err) {
			return nil, err
		}
	}
	return nil, err
}
