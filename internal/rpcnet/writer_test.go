package rpcnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn records every write that reaches the "socket".
type countingConn struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.buf.Write(p)
}

func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

// frames parses everything written so far, keyed by request ID.
func (c *countingConn) frames(t *testing.T) map[uint64][]byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64][]byte)
	r := bytes.NewReader(c.buf.Bytes())
	for {
		id, _, payload, err := readMuxFrame(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("written stream does not parse: %v", err)
		}
		out[id] = payload
	}
}

func waitQueued(t *testing.T, w *frameWriter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		queued := w.waiting
		w.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d writers queued, want %d", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameWriterQueuedFramesShareOneFlush pins the coalescing property:
// frames queued behind the turn's holder leave in one flush, performed by
// the last writer in the queue — or, when that writer gives up, by its
// leaving.
func TestFrameWriterQueuedFramesShareOneFlush(t *testing.T) {
	const queued = 8
	for _, lastGivesUp := range []bool{false, true} {
		t.Run(fmt.Sprintf("lastGivesUp=%v", lastGivesUp), func(t *testing.T) {
			conn := &countingConn{}
			var flushed atomic.Int64
			w := newFrameWriter(conn, func(n int) { flushed.Add(int64(n)) })
			w.lock(nil) // the holder
			var wg sync.WaitGroup
			for i := 1; i <= queued; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.lock(nil)
					if err := w.send(time.Time{}, uint64(i), 0, []byte{byte(i)}); err != nil {
						t.Error(err)
					}
				}()
			}
			waitQueued(t, w, queued)
			if lastGivesUp {
				// One more writer queues, then gives up after the holder
				// and every writer before it have left their frames to it.
				w.mu.Lock()
				w.waiting++
				w.mu.Unlock()
			}
			if err := w.send(time.Time{}, 0, 0, []byte{0}); err != nil {
				t.Fatal(err)
			}
			if lastGivesUp {
				waitQueued(t, w, 1)
				if conn.writes != 0 {
					t.Fatalf("%d writes before the last queued writer left", conn.writes)
				}
				w.leave()
			}
			wg.Wait()
			if conn.writes != 1 {
				t.Errorf("%d frames took %d writes, want 1", queued+1, conn.writes)
			}
			if got := len(conn.frames(t)); got != queued+1 {
				t.Errorf("%d frames on the wire, want %d", got, queued+1)
			}
			if got := flushed.Load(); got != queued+1 {
				t.Errorf("flush reported %d frames, want %d", got, queued+1)
			}
		})
	}
}

// TestFrameWriterGiveUpRace races writers that give up against writers
// that send: every frame sent must reach the socket, and every buffered
// frame must be flushed once the last writer is gone.
func TestFrameWriterGiveUpRace(t *testing.T) {
	conn := &countingConn{}
	var flushed atomic.Int64
	w := newFrameWriter(conn, func(n int) { flushed.Add(int64(n)) })
	const writers = 2000
	var sent sync.Map
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan struct{})
			if rand.Intn(2) == 0 {
				close(done)
			}
			if !w.lock(done) {
				return
			}
			sent.Store(uint64(i), true)
			if err := w.send(time.Time{}, uint64(i), 0, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := conn.frames(t)
	n := 0
	sent.Range(func(id, _ any) bool {
		n++
		if _, ok := got[id.(uint64)]; !ok {
			t.Errorf("frame %d sent but never flushed", id)
		}
		return true
	})
	if len(got) != n || flushed.Load() != int64(n) {
		t.Errorf("%d frames sent, %d on the wire, %d reported flushed", n, len(got), flushed.Load())
	}
	if w.bw.Buffered() != 0 || w.dirty {
		t.Errorf("%d bytes left buffered (dirty=%v)", w.bw.Buffered(), w.dirty)
	}
}

// stalledPeer accepts one mux connection and reads nothing until release
// is called; then it echoes every frame, counting them in received. With
// the client's send buffer shrunk (dialStalled), a megabyte-scale request
// blocks its writer.
func stalledPeer(t *testing.T) (addr string, release func(), received *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	received = new(atomic.Int64)
	var once sync.Once
	release = func() { once.Do(func() { close(released) }) }
	t.Cleanup(func() {
		release()
		ln.Close()
	})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-released
		magic := make([]byte, len(muxMagic))
		if _, err := io.ReadFull(conn, magic); err != nil {
			return
		}
		for {
			id, _, payload, err := readMuxFrame(conn)
			if err != nil {
				return
			}
			received.Add(1)
			if writeMuxFrame(conn, id, 0, payload) != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), release, received
}

func dialStalled(t *testing.T, addr string, timeout time.Duration) *MuxConn {
	t.Helper()
	m, err := DialMux(addr, MuxOptions{CallTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.conn.(*net.TCPConn).SetWriteBuffer(4096)
	return m
}

// TestMuxBlockedWriteTimesOutAndPoisons pins the bound on a caller-side
// write: against a peer that never reads, a large call fails within its
// call timeout, and the half-written frame poisons the connection.
func TestMuxBlockedWriteTimesOutAndPoisons(t *testing.T) {
	addr, _, _ := stalledPeer(t)
	m := dialStalled(t, addr, 200*time.Millisecond)
	start := time.Now()
	_, err := m.Call(1, make([]byte, 4<<20))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net.Error timeout", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("blocked write returned after %v, call timeout is 200ms", d)
	}
	if !m.Broken() {
		t.Error("a write cut by its deadline did not poison the connection")
	}
}

// TestMuxQueuedCallCancelsWithoutPoisoning pins cancellation behind a
// blocked write: a call queued for its turn to write returns
// context.Canceled when its context is cancelled, having written nothing,
// so once the peer reads again the blocked call and later ones complete.
func TestMuxQueuedCallCancelsWithoutPoisoning(t *testing.T) {
	addr, release, received := stalledPeer(t)
	m := dialStalled(t, addr, 30*time.Second)
	big := make([]byte, 1<<20)
	bigDone := make(chan error, 1)
	go func() {
		resp, err := m.Call(1, big)
		if err == nil && len(resp) != len(big) {
			err = fmt.Errorf("echo of %d bytes came back as %d", len(big), len(resp))
		}
		bigDone <- err
	}()
	for len(m.w.turn) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := m.CallContext(ctx, 1, []byte("queued"))
		queued <- err
	}()
	waitQueued(t, m.w, 1)
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued call: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call stayed queued behind the blocked write")
	}
	if m.Broken() {
		t.Fatal("cancelling a queued call poisoned the connection")
	}
	m.conn.(*net.TCPConn).SetWriteBuffer(4 << 20)
	release()
	if err := <-bigDone; err != nil {
		t.Fatalf("blocked call after the peer resumed: %v", err)
	}
	if resp, err := m.Call(1, []byte("after")); err != nil || string(resp) != "after" {
		t.Fatalf("call after the cancellation: %q, %v", resp, err)
	}
	if n := received.Load(); n != 2 {
		t.Fatalf("peer received %d frames, want 2: the cancelled call was written", n)
	}
}
