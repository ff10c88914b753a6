package rpcnet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeRejectsNilHandler(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	s := muxEchoServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{})
	defer c.Close()
	payload := []byte("/some/path with spaces and \x00 bytes")
	resp, err := c.Call(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Errorf("echo = %q, want %q", resp, payload)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := muxEchoServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{})
	defer c.Close()
	resp, err := c.Call(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Errorf("empty echo = %q", resp)
	}
}

func TestApplicationError(t *testing.T) {
	s := muxEchoServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{})
	defer c.Close()
	if _, err := c.Call(2, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want remote boom", err)
	}
	// Connection survives application errors.
	if _, err := c.Call(1, []byte("still alive")); err != nil {
		t.Errorf("connection dead after app error: %v", err)
	}
}

func TestSequentialCallsOnOneConnection(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 200; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		resp, err := m.Call(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, msg) {
			t.Fatalf("call %d response %q", i, resp)
		}
	}
}

// TestConcurrentClients runs one connection per worker against one server.
func TestConcurrentClients(t *testing.T) {
	s := muxEchoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, err := DialMux(s.Addr(), MuxOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer m.Close()
			for i := 0; i < 100; i++ {
				msg := []byte(fmt.Sprintf("w%d-%d", w, i))
				resp, err := m.Call(1, msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("w%d: cross-talk: %q != %q", w, resp, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLargePayload(t *testing.T) {
	s := muxEchoServer(t)
	c := NewMuxClient(s.Addr(), MuxOptions{})
	defer c.Close()
	big := make([]byte, 1<<20) // 1 MB, filter-replica scale
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err := c.Call(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Error("large payload corrupted")
	}
}

func TestCallAfterClientClose(t *testing.T) {
	s := muxEchoServer(t)
	m, err := DialMux(s.Addr(), MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Call(1, nil); !errors.Is(err, ErrConnClosed) {
		t.Errorf("call after close = %v, want ErrConnClosed", err)
	}
	m.Close() // double close is safe
}

func TestCallAfterServerClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0", func(uint8, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	m, err := DialMux(s.Addr(), MuxOptions{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s.Close()
	s.Close() // idempotent
	if _, err := m.Call(1, nil); err == nil {
		t.Error("call against closed server succeeded")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := DialMux("127.0.0.1:1", MuxOptions{}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}
