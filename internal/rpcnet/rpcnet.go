// Package rpcnet is the prototype's wire layer: a multiplexed,
// length-prefixed binary request/response protocol over TCP. The paper's
// prototype runs one MDS per Linux node; here every MDS daemon listens on a
// loopback TCP port and peers exchange real socket traffic, so message
// counts (Fig 15) are exact and latencies (Fig 14) include genuine network
// stack costs.
//
// One socket carries many concurrent logical calls: every frame carries a
// request ID, responses may return in any order, and the ID pairs them with
// their calls. A client opens the connection with the 4-byte magic "GMX1";
// the server closes any connection that opens with anything else. After the
// magic, both directions carry frames, big endian:
//
//	len uint32 | id uint64 | lead uint8 | payload
//
// where len covers everything after the length field (so len ≥ 9), lead is
// the request type client→server and the status byte (0 = OK, 1 =
// application error, payload = message) server→client, and len is capped
// at MaxMessageBytes.
//
// Writes are caller-side: the goroutine issuing a call (client) or
// finishing a handler (server) writes its own frame through the socket's
// shared frameWriter, and the last writer in the queue flushes, so frames
// written back to back leave in one syscall. Per connection the only
// long-lived goroutines are the client's read loop and the server's read
// loop; the server adds one goroutine per request in flight.
package rpcnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxMessageBytes bounds a single message (filters can be megabytes at
// paper scale, but the prototype's are far smaller).
const MaxMessageBytes = 64 << 20

// muxMagic opens every connection; it is the protocol's only handshake.
const muxMagic = "GMX1"

// muxFrameOverhead is the id+lead bytes covered by a frame's length.
const muxFrameOverhead = 9

// RemoteError is an application-level error returned by a server handler.
// The request/response frames completed cleanly, so the connection remains
// usable, unlike transport errors (timeouts, resets), which poison it.
type RemoteError struct {
	// Msg is the handler's error text as sent on the wire.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "rpcnet: remote error: " + e.Msg }

// Handler processes one request and returns the response payload.
// Returning an error sends an application-error response; the connection
// stays usable.
type Handler func(msgType uint8, payload []byte) ([]byte, error)

// Server accepts connections and dispatches requests to its handler,
// serving each connection on its own goroutine.
type Server struct {
	ln      net.Listener
	handler Handler

	// active counts requests in flight, from dispatch until their response
	// frame is flushed; Drain waits on it so a shutdown never cuts a
	// request mid-execution or leaves its answer in a buffer.
	active atomic.Int64

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral port).
func Serve(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("rpcnet: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// muxServerConcurrency bounds the handler goroutines running per
// connection; requests beyond it queue in the read loop, applying
// backpressure through TCP.
const muxServerConcurrency = 64

// serveConn serves one connection: after the magic, the read loop
// dispatches each request frame to a handler goroutine (bounded by
// muxServerConcurrency), and each handler writes its own response — out of
// order when handlers finish out of order — through the connection's
// frameWriter. A connection that does not open with the magic is closed
// before any byte of it reaches the handler.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var magic [len(muxMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != muxMagic {
		return
	}
	// A request's active reference is released by whichever writer
	// flushes its response (or abandons it on a broken connection), so
	// Drain's zero-active condition means every answer left the buffer.
	w := newFrameWriter(conn, func(frames int) { s.active.Add(-int64(frames)) })
	sem := make(chan struct{}, muxServerConcurrency)
	var wg sync.WaitGroup
	for {
		id, msgType, payload, err := readMuxFrame(br)
		if err != nil {
			break // connection closed or malformed stream
		}
		sem <- struct{}{}
		s.active.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp, herr := s.handler(msgType, payload)
			status := uint8(0)
			if herr != nil {
				status = 1
				resp = []byte(herr.Error())
			}
			w.lock(nil)
			if w.send(time.Time{}, id, status, resp) != nil {
				conn.Close() // ends the read loop; later responses are abandoned
			}
		}()
	}
	wg.Wait()
}

// ActiveRequests returns the number of requests in flight: dispatched to
// the handler and not yet answered on the wire.
func (s *Server) ActiveRequests() int64 { return s.active.Load() }

// Drain shuts the server down without cutting requests mid-execution: it
// stops accepting new connections, waits up to timeout for every in-flight
// request (handler plus response flush) to finish, then closes. Requests
// that arrive on existing connections while draining still execute; the
// bound covers them too. timeout ≤ 0 closes immediately.
//
// If the bound expires with requests still executing, Drain closes the
// listener and every connection — so clients fail fast — but does NOT wait
// for the wedged handlers: a goroutine blocked inside a handler cannot be
// interrupted, and waiting on it would turn a bounded shutdown into an
// unbounded one. The error reports how many requests were abandoned.
func (s *Server) Drain(timeout time.Duration) error {
	// Stop accepting; established connections keep serving until the close.
	s.ln.Close()
	deadline := time.Now().Add(timeout)
	for s.active.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cut := s.active.Load(); cut > 0 {
		s.mu.Lock()
		s.closed = true // make the eventual Close a no-op: it must not wg.Wait on wedged handlers
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return fmt.Errorf("rpcnet: drain timed out with %d requests in flight", cut)
	}
	s.Close()
	return nil
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// errPayloadTooBig reports an oversized outbound payload. A value-typed
// error keeps the size check on the frame-write hot path free of fmt calls:
// the message is formatted only if a caller reads it, and the interface
// boxing happens on the failure return, never on the success path.
type errPayloadTooBig int

func (e errPayloadTooBig) Error() string {
	return fmt.Sprintf("rpcnet: payload %d bytes exceeds limit", int(e))
}

// writeMuxFrame appends one frame to w.
//
//ghbavet:hotpath
func writeMuxFrame(w io.Writer, id uint64, lead uint8, payload []byte) error {
	if len(payload)+muxFrameOverhead > MaxMessageBytes {
		return errPayloadTooBig(len(payload))
	}
	var hdr [4 + muxFrameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+muxFrameOverhead))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = lead
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMuxFrame reads one frame. The payload buffer grows as bytes actually
// arrive (1 MiB steps), so a malicious length prefix cannot force a
// MaxMessageBytes allocation out of a short stream.
func readMuxFrame(r io.Reader) (id uint64, lead uint8, payload []byte, err error) {
	var hdr [4 + muxFrameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < muxFrameOverhead || n > MaxMessageBytes {
		return 0, 0, nil, fmt.Errorf("rpcnet: mux frame length %d out of range", n)
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	lead = hdr[12]
	body := int(n) - muxFrameOverhead
	const chunk = 1 << 20
	if body <= chunk {
		payload = make([]byte, body)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, err
		}
		return id, lead, payload, nil
	}
	payload = make([]byte, 0, chunk)
	for len(payload) < body {
		step := body - len(payload)
		if step > chunk {
			step = chunk
		}
		off := len(payload)
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return 0, 0, nil, err
		}
	}
	return id, lead, payload, nil
}
