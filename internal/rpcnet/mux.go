package rpcnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The client side of the protocol: a MuxConn shares one socket among many
// concurrent logical calls. Each caller writes its own request frame
// through the connection's frameWriter, one reader goroutine pairs the
// responses with their calls by request ID, and an in-flight window bounds
// the requests awaiting responses.
//
// Application errors are clean frames and surface as *RemoteError.
// Transport errors (resets, short reads, malformed frames, call timeouts
// against a hung server, writes cut by a deadline) poison the connection
// and fail every in-flight call. Context cancellation does not poison: a
// call cancelled while queued to write leaves having written nothing, and
// a call cancelled after its write just discards its response when it
// arrives.

// DefaultWindow is the in-flight window applied when MuxOptions leaves
// Window zero: calls beyond it queue client-side until responses drain.
const DefaultWindow = 256

// ErrConnClosed is returned by calls against a connection or client that
// was closed locally (as opposed to poisoned by a transport error, which
// fails calls with the poisoning error).
var ErrConnClosed = errors.New("rpcnet: connection closed")

// errCallTimeout marks a per-call deadline expiry against an unresponsive
// server; it poisons the connection like any transport fault.
type errCallTimeout struct{ d time.Duration }

func (e *errCallTimeout) Error() string {
	return fmt.Sprintf("rpcnet: call timed out after %v", e.d)
}

// Timeout and Temporary make *errCallTimeout satisfy net.Error, so callers
// can test nerr.Timeout() as for any network timeout.
func (e *errCallTimeout) Timeout() bool   { return true }
func (e *errCallTimeout) Temporary() bool { return true }

// MuxOptions configures a multiplexed connection.
type MuxOptions struct {
	// DialTimeout bounds the dial (and the magic write); zero means none.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline, covering the request write and
	// the wait for the response. A call that exceeds it poisons the
	// connection — an unresponsive daemon costs the in-flight window,
	// never a wedged client. Zero disables.
	CallTimeout time.Duration
	// Window caps the in-flight (sent, unanswered) calls sharing the
	// connection; zero selects DefaultWindow.
	Window int
}

func (o *MuxOptions) window() int {
	if o.Window <= 0 {
		return DefaultWindow
	}
	return o.Window
}

// muxReply is one response (or terminal failure) delivered to a waiter.
type muxReply struct {
	status  uint8
	payload []byte
	err     error
}

// MuxConn is one multiplexed connection: many concurrent CallContexts share
// the socket, paired to responses by request ID. Transport errors poison the
// connection (every pending and future call fails); context cancellation
// abandons only the cancelled call. Use a MuxClient for automatic redial
// after poisoning.
type MuxConn struct {
	conn    net.Conn
	w       *frameWriter
	window  chan struct{}
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	failure error // terminal; set once
	done    chan struct{}
}

// DialMux opens a multiplexed connection: it dials, sends the protocol
// magic, and starts the connection's reader goroutine.
func DialMux(addr string, opts MuxOptions) (*MuxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: dial %s: %w", addr, err)
	}
	if opts.DialTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(opts.DialTimeout))
	}
	if _, err := conn.Write([]byte(muxMagic)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpcnet: mux handshake with %s: %w", addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	m := &MuxConn{
		conn:    conn,
		w:       newFrameWriter(conn, nil),
		window:  make(chan struct{}, opts.window()),
		timeout: opts.CallTimeout,
		pending: make(map[uint64]chan muxReply),
		done:    make(chan struct{}),
	}
	go m.readLoop()
	return m, nil
}

// readLoop is the connection's single reader: it pairs every response frame
// with its pending call. A response for an abandoned (cancelled) call is
// discarded; an ID that was never issued is protocol corruption and poisons
// the connection.
func (m *MuxConn) readLoop() {
	br := bufio.NewReader(m.conn)
	for {
		id, status, payload, err := readMuxFrame(br)
		if err != nil {
			m.fail(fmt.Errorf("rpcnet: read: %w", err))
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		} else if id >= m.nextID {
			m.mu.Unlock()
			m.fail(fmt.Errorf("rpcnet: response for request ID %d that was never sent", id))
			return
		}
		m.mu.Unlock()
		if ok {
			ch <- muxReply{status: status, payload: payload} // buffered; never blocks
		}
	}
}

// fail poisons the connection once: the terminal error is recorded, every
// pending call is failed, and the socket is closed (unblocking the reader
// and any blocked write).
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.failure == nil {
		m.failure = err
		close(m.done)
		for id, ch := range m.pending {
			delete(m.pending, id)
			ch <- muxReply{err: err}
		}
	}
	m.mu.Unlock()
	m.conn.Close()
}

// Broken reports whether the connection has been poisoned or closed.
func (m *MuxConn) Broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failure != nil
}

// Close poisons the connection with ErrConnClosed: pending calls fail, the
// socket closes, and the reader exits. Idempotent.
func (m *MuxConn) Close() { m.fail(ErrConnClosed) }

// err returns the terminal failure (nil while healthy).
func (m *MuxConn) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failure
}

// Call is CallContext with no cancellation.
func (m *MuxConn) Call(msgType uint8, payload []byte) ([]byte, error) {
	return m.CallContext(context.Background(), msgType, payload)
}

// CallContext issues one logical call over the shared socket: it acquires an
// in-flight window slot, writes the request frame, and waits for the
// matching response. The payload must not be mutated until the call returns.
// Application errors surface as *RemoteError and leave the connection
// usable. Cancelling the context abandons the call and also leaves the
// connection usable: before the write, nothing is sent; after it, the
// response is discarded when it arrives. The configured call timeout and
// the context's deadline both bound the write; a write cut by either, or a
// response later than the call timeout, poisons the connection, as the
// server is presumed hung mid-stream.
func (m *MuxConn) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case m.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-m.done:
		return nil, m.err()
	}
	defer func() { <-m.window }()

	m.mu.Lock()
	if m.failure != nil {
		err := m.failure
		m.mu.Unlock()
		return nil, err
	}
	id := m.nextID
	m.nextID++
	ch := make(chan muxReply, 1)
	m.pending[id] = ch
	m.mu.Unlock()

	var callDeadline, writeDeadline time.Time
	if m.timeout > 0 {
		callDeadline = time.Now().Add(m.timeout)
		writeDeadline = callDeadline
	}
	ctxDeadline, hasCtxDeadline := ctx.Deadline()
	if hasCtxDeadline && (writeDeadline.IsZero() || ctxDeadline.Before(writeDeadline)) {
		writeDeadline = ctxDeadline
	}
	if !m.w.lock(ctx.Done()) {
		m.abandon(id)
		return nil, ctx.Err()
	}
	if err := m.w.send(writeDeadline, id, msgType, payload); err != nil {
		// The frame may be cut mid-stream: poison. A write cut by its
		// deadline is a call timeout, or the context's expiry when the
		// context's deadline was the earlier one.
		var nerr net.Error
		switch {
		case !errors.As(err, &nerr) || !nerr.Timeout():
			err = fmt.Errorf("rpcnet: write: %w", err)
		case writeDeadline.Equal(callDeadline):
			err = &errCallTimeout{d: m.timeout}
		default:
			err = fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
		}
		m.fail(err)
		return nil, m.err()
	}

	var timeoutC <-chan time.Time
	if m.timeout > 0 {
		t := time.NewTimer(time.Until(callDeadline))
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case rep := <-ch:
		if rep.err != nil {
			return nil, rep.err
		}
		if rep.status != 0 {
			return nil, &RemoteError{Msg: string(rep.payload)}
		}
		return rep.payload, nil
	case <-ctx.Done():
		m.abandon(id)
		return nil, ctx.Err()
	case <-timeoutC:
		err := &errCallTimeout{d: m.timeout}
		m.fail(err)
		return nil, err
	}
}

// abandon withdraws a cancelled call's pending entry; a response already
// claimed by the reader lands in the call's buffered channel and is GC'd.
func (m *MuxConn) abandon(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// MuxClient keeps one multiplexed connection to a server, redialing
// transparently after the connection is poisoned. Concurrent calls share
// the single socket's in-flight window.
type MuxClient struct {
	addr string
	opts MuxOptions

	mu     sync.Mutex
	conn   *MuxConn
	closed bool
}

// NewMuxClient builds a client for addr. No connection is dialed until the
// first call.
func NewMuxClient(addr string, opts MuxOptions) *MuxClient {
	return &MuxClient{addr: addr, opts: opts}
}

// Addr returns the server address the client dials.
func (c *MuxClient) Addr() string { return c.addr }

// current returns the live connection, dialing a fresh one if the previous
// was poisoned. Dials serialize on the client mutex so one daemon restart
// costs one redial, not a thundering herd.
func (c *MuxClient) current() (*MuxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConnClosed
	}
	if c.conn != nil && !c.conn.Broken() {
		return c.conn, nil
	}
	conn, err := DialMux(c.addr, c.opts)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return conn, nil
}

// Call is CallContext with no cancellation.
func (c *MuxClient) Call(msgType uint8, payload []byte) ([]byte, error) {
	return c.CallContext(context.Background(), msgType, payload)
}

// CallContext issues one call over the shared multiplexed connection; see
// MuxConn.CallContext for the window, cancellation and poisoning semantics.
func (c *MuxClient) CallContext(ctx context.Context, msgType uint8, payload []byte) ([]byte, error) {
	conn, err := c.current()
	if err != nil {
		return nil, err
	}
	return conn.CallContext(ctx, msgType, payload)
}

// Close closes the live connection and fails subsequent calls with
// ErrConnClosed. Idempotent.
func (c *MuxClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
