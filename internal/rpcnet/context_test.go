package rpcnet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// opStall is the request type stallServer blocks on.
const opStall uint8 = 9

// stallServer echoes every request except opStall, which blocks until the
// test ends (the release is registered as a cleanup after the server's own
// Close, so it runs first and handlers unblock before Close waits). It
// counts the requests that reached the handler.
func stallServer(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	release := make(chan struct{})
	handled := new(atomic.Int64)
	s, err := Serve("127.0.0.1:0", func(msgType uint8, payload []byte) ([]byte, error) {
		handled.Add(1)
		if msgType == opStall {
			<-release
		}
		return payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(release) })
	return s, handled
}

// TestCallContextCancellation pins the cancellation path: a context
// cancelled mid-call releases the blocked caller with context.Canceled,
// and the connection keeps serving — the late response is discarded by
// request ID.
func TestCallContextCancellation(t *testing.T) {
	s, _ := stallServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = m.CallContext(ctx, opStall, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, call was not interrupted", elapsed)
	}
	if resp, err := m.Call(1, []byte("x")); err != nil || !bytes.Equal(resp, []byte("x")) {
		t.Errorf("connection unusable after a cancelled call: %q, %v", resp, err)
	}
}

// TestCallContextDeadline pins the deadline merge: a context deadline
// tighter than the connection's call timeout wins, and expiry surfaces
// context.DeadlineExceeded.
func TestCallContextDeadline(t *testing.T) {
	s, _ := stallServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{DialTimeout: time.Second, CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = m.CallContext(ctx, opStall, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline honored the 30s call timeout instead: %v", elapsed)
	}
}

// TestCallContextPreCancelled pins the fail-fast path: an already-cancelled
// context never writes a frame, so the server never sees it.
func TestCallContextPreCancelled(t *testing.T) {
	s, handled := stallServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.CallContext(ctx, 1, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call returned %v", err)
	}
	resp, err := m.Call(1, []byte("clean"))
	if err != nil || !bytes.Equal(resp, []byte("clean")) {
		t.Fatalf("connection dirtied by pre-cancelled call: %v %q", err, resp)
	}
	if n := handled.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1: the pre-cancelled call was written", n)
	}
}

// TestCallDeadlineOnStalledServer pins the call timeout: a hung handler
// costs one failed call, and the connection is poisoned so later calls
// fail fast with the same error instead of waiting out the hang.
func TestCallDeadlineOnStalledServer(t *testing.T) {
	s, _ := stallServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{DialTimeout: time.Second, CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	_, err = m.Call(opStall, []byte("wedge me"))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("err = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, deadline was 100ms", elapsed)
	}
	if _, err := m.Call(1, []byte("after")); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("call on poisoned connection = %v, want the timeout that poisoned it", err)
	}
}

func TestClientWithoutTimeoutStillWorks(t *testing.T) {
	s, _ := stallServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{})
	defer c.Close()
	resp, err := c.Call(1, []byte("no deadline"))
	if err != nil || !bytes.Equal(resp, []byte("no deadline")) {
		t.Fatalf("call = %q, %v", resp, err)
	}
}
