package rpcnet

import (
	"bufio"
	"io"
	"sync"
	"time"
)

// deadlineWriter is the write half of a socket: a net.Conn, or a test fake.
type deadlineWriter interface {
	io.Writer
	SetWriteDeadline(t time.Time) error
}

// frameWriter is the write side of one socket, shared by every goroutine
// that sends on it: the callers of a client connection, the handler
// goroutines of a server one. Writers take turns through a one-slot
// channel, so a writer still waiting for its turn can give up having
// written nothing. The holder of the turn writes its frame into the buffer
// and flushes only if nobody is queued behind it: the last writer in the
// queue flushes for all, and frames written back to back share one
// syscall.
//
// A writer that gives up may be the one the previous holder left its
// frames to. Handing the turn on and marking the buffer dirty happen in one
// mu critical section, so a leaving writer either sees the dirty buffer and
// flushes it, or finds the turn held by a writer that will.
type frameWriter struct {
	conn    deadlineWriter
	turn    chan struct{}    // one slot; its holder owns bw, err, frames and deadline
	flushed func(frames int) // optional; told how many frames left the buffer, or were abandoned

	mu      sync.Mutex // never held across I/O
	waiting int        // writers queued for the turn
	dirty   bool       // the buffer holds frames left to a queued writer

	bw       *bufio.Writer
	err      error     // first write error; sticky, as the stream is cut mid-frame
	frames   int       // frames buffered since the last flush
	deadline time.Time // write deadline currently set on conn
}

func newFrameWriter(conn deadlineWriter, flushed func(frames int)) *frameWriter {
	return &frameWriter{conn: conn, turn: make(chan struct{}, 1), flushed: flushed, bw: bufio.NewWriter(conn)}
}

// lock waits for the turn. It returns false, having written nothing, if
// done closes first.
func (w *frameWriter) lock(done <-chan struct{}) bool {
	select {
	case w.turn <- struct{}{}:
		return true
	default:
	}
	w.mu.Lock()
	w.waiting++
	w.mu.Unlock()
	select {
	case w.turn <- struct{}{}:
		w.mu.Lock()
		w.waiting--
		w.mu.Unlock()
		return true
	case <-done:
		w.leave()
		return false
	}
}

// send writes one frame under deadline (zero: none) and ends the turn. A
// write that blocks past the deadline fails, and every later send with it.
//
//ghbavet:hotpath
func (w *frameWriter) send(deadline time.Time, id uint64, lead uint8, payload []byte) error {
	err := w.err
	if err == nil && !deadline.Equal(w.deadline) {
		err = w.conn.SetWriteDeadline(deadline)
		w.deadline = deadline
	}
	if err == nil {
		err = writeMuxFrame(w.bw, id, lead, payload)
	}
	w.frames++
	return w.unlock(err)
}

// unlock ends the turn. A healthy holder with writers queued behind it
// leaves its frames to them; otherwise it flushes every buffered frame, or
// after an error abandons them.
func (w *frameWriter) unlock(err error) error {
	w.mu.Lock()
	if err == nil && w.waiting > 0 {
		w.dirty = true
		<-w.turn
		w.mu.Unlock()
		return nil
	}
	w.dirty = false
	w.mu.Unlock()
	if err == nil {
		err = w.bw.Flush()
	}
	if w.err == nil {
		w.err = err
	}
	frames := w.frames
	w.frames = 0
	<-w.turn
	if w.flushed != nil {
		w.flushed(frames)
	}
	return err
}

// leave withdraws a queued writer that gave up. If the buffer was left to
// the queue and this was its last writer, leave takes the free turn and
// flushes the frames under the deadline already set; if the turn is held,
// its holder has yet to look at the queue, finds it empty, and flushes.
func (w *frameWriter) leave() {
	w.mu.Lock()
	w.waiting--
	if w.waiting > 0 || !w.dirty {
		w.mu.Unlock()
		return
	}
	select {
	case w.turn <- struct{}{}:
		w.mu.Unlock()
		w.unlock(w.err)
	default:
		w.mu.Unlock()
	}
}
