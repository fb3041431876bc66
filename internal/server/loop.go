package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The connection loop: snapshotd's HTTP/1.1 front. Each connection is one
// goroutine reading a request head, the body named by its Content-Length,
// running the dispatch core, and writing the reply in one Write, until the
// client closes, asks to close, or a limit ends it. See the package comment
// for the subset of HTTP it serves.

// Per-request time limits of the connection loop.
const (
	// ReadTimeout bounds reading one request, head and body, from its
	// first byte.
	ReadTimeout = 10 * time.Second
	// WriteTimeout bounds writing one reply.
	WriteTimeout = 10 * time.Second
	// IdleTimeout closes a connection that sends no request for this long.
	// It is longer than the Go client's 90 s idle timeout, so a Go client
	// drops an idle connection before the server does.
	IdleTimeout = 2 * time.Minute
)

// lingerTime and lingerBytes bound how long and how much a connection
// closed with unread input goes on reading (see linger).
const (
	lingerTime  = 500 * time.Millisecond
	lingerBytes = 4 * MaxBodyBytes
)

// ErrServerClosed is what Serve returns once Shutdown has been called.
var ErrServerClosed = errors.New("server: closed")

// limits are the connection loop's time limits; tests shorten them.
type limits struct {
	read, write, idle time.Duration
}

// Connection states. Shutdown closes a connection only by moving it from
// idle to closed, so a request that has started is always answered.
const (
	connIdle int32 = iota
	connActive
	connClosed
)

// conn is one client connection.
type conn struct {
	nc    net.Conn
	state atomic.Int32
	write time.Duration // the write limit
	out   []byte        // the reply being framed, reused across requests
}

// Serve accepts connections on ln and serves each on its own goroutine. It
// returns ErrServerClosed after Shutdown, or the listener's error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		_ = ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Out of descriptors, an aborted handshake: wait and retry,
			// as net/http does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := &conn{nc: nc, write: s.limits.write}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			_ = nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown stops Serve: it closes the listeners and the idle connections,
// lets every request in flight finish, and returns once each connection has
// closed, or with ctx's error if ctx ends first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	for ln := range s.lns {
		_ = ln.Close()
	}
	// A connection moves to idle before it checks closing, and closing was
	// set first here: each connection either sees closing and leaves, or is
	// idle now and is closed here.
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			_ = c.nc.Close()
		}
	}
	s.noteDrainedLocked()
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// noteDrainedLocked closes s.drained once Shutdown has begun and no
// connection is left. s.mu is held.
func (s *Server) noteDrainedLocked() {
	if s.closing.Load() && len(s.conns) == 0 && !s.isDrained {
		s.isDrained = true
		close(s.drained)
	}
}

// serveConn serves c's requests in order until the connection ends.
func (s *Server) serveConn(c *conn) {
	wb := getWireBuf()
	br := bufio.NewReaderSize(c.nc, maxHeadBytes)
	defer func() {
		_ = c.nc.Close()
		putWireBuf(wb)
		s.mu.Lock()
		delete(s.conns, c)
		s.noteDrainedLocked()
		s.mu.Unlock()
	}()
	for {
		c.state.Store(connIdle)
		if s.closing.Load() {
			return
		}
		if br.Buffered() == 0 {
			if c.nc.SetReadDeadline(time.Now().Add(s.limits.idle)) != nil {
				return
			}
			if _, err := br.Peek(1); err != nil {
				return
			}
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			return // Shutdown closed it
		}
		if !s.serveRequest(c, br, wb) {
			return
		}
		if wb.oversize() {
			wb = new(wireBuf)
		}
	}
}

// serveRequest reads one request from br, runs it and writes the reply. It
// reports whether the connection stays open for another request.
func (s *Server) serveRequest(c *conn, br *bufio.Reader, wb *wireBuf) bool {
	if c.nc.SetReadDeadline(time.Now().Add(s.limits.read)) != nil {
		return false
	}
	var h head
	if err := readHead(br, &h); err != nil {
		var he *headError
		if !errors.As(err, &he) {
			return false // end of input, a deadline, a reset: nobody to answer
		}
		status := s.fail(wb, he.status, he.code, he)
		if c.writeReply(&head{proto11: true}, status, jsonType, wb.out, false) == nil {
			c.linger()
		}
		return false
	}
	r := request{method: h.method, path: h.path}
	keep := h.keepAlive
	switch {
	case h.length > MaxBodyBytes:
		// Answered before the body is read; the unread body ends the
		// connection.
		r.bodyErr = errTooLarge
		keep = false
	case h.length > 0:
		if h.expectContinue {
			if c.nc.SetWriteDeadline(time.Now().Add(c.write)) != nil {
				return false
			}
			if _, err := c.nc.Write(continue100); err != nil {
				return false
			}
		}
		wb.in.Reset()
		wb.in.Grow(int(h.length))
		r.body = wb.in.AvailableBuffer()[:h.length]
		if _, err := io.ReadFull(br, r.body); err != nil {
			return false
		}
	}
	status, ctype := s.dispatch(wb, r)
	keep = keep && !s.closing.Load()
	if c.writeReply(&h, status, ctype, wb.out, keep) != nil {
		return false
	}
	if r.bodyErr != nil {
		c.linger()
	}
	return keep
}

var continue100 = []byte("HTTP/1.1 100 Continue\r\n\r\n")

// writeReply frames one reply, status line, Content-Type, Content-Length,
// a Connection header where the default does not hold, and the body, and
// sends it in a single Write. A reply to HEAD carries no body.
func (c *conn) writeReply(h *head, status int, ctype string, body []byte, keep bool) error {
	b := c.out[:0]
	if h.proto11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, ctype...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	switch {
	case !keep:
		b = append(b, "\r\nConnection: close"...)
	case !h.proto11:
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	b = append(b, "\r\n\r\n"...)
	if h.method != http.MethodHead {
		b = append(b, body...)
	}
	if cap(b) <= maxPooledBuf {
		c.out = b
	} else {
		c.out = nil
	}
	if err := c.nc.SetWriteDeadline(time.Now().Add(c.write)); err != nil {
		return err
	}
	_, err := c.nc.Write(b)
	return err
}

// linger closes the write side of a connection that ends with input still
// unread, and reads and drops what the client goes on sending, for a
// bounded time and amount, before the connection is closed. Closing a
// socket with unread input resets the connection, and the reset can reach
// the client before it has read the reply just sent.
func (c *conn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	if c.nc.SetReadDeadline(time.Now().Add(lingerTime)) == nil {
		_, _ = io.CopyN(io.Discard, c.nc, lingerBytes)
	}
}
