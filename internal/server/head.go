package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The request-head parser of the connection loop. It reads the subset of
// HTTP/1.1 snapshotd's clients send and rejects the rest; every head it
// accepts, http.ReadRequest accepts too, with the same method, path and
// Content-Length (FuzzReadHead checks this).

// maxHeadBytes caps a request head, request line and headers together; a
// longer one is answered 431. The connection's read buffer has this size,
// so a head is always parsed in place.
const maxHeadBytes = 8 << 10

// head is one parsed request head: what the loop needs, nothing else.
type head struct {
	method, path string
	proto11      bool  // HTTP/1.1; false for HTTP/1.0
	length       int64 // Content-Length, 0 when absent
	keepAlive    bool
	// expectContinue: the client waits for an interim 100 before it sends
	// the body.
	expectContinue bool
}

// headError is a head the loop refuses, with the status it answers.
type headError struct {
	status int
	code   string
	msg    string
}

func (e *headError) Error() string { return e.msg }

func badHead(msg string) error {
	return &headError{status: http.StatusBadRequest, code: "bad_request", msg: "malformed request: " + msg}
}

var (
	errHeadTooLarge = &headError{status: http.StatusRequestHeaderFieldsTooLarge, code: "too_large",
		msg: fmt.Sprintf("request head exceeds %d bytes", maxHeadBytes)}
	errChunked = &headError{status: http.StatusLengthRequired, code: "bad_request",
		msg: "Transfer-Encoding is not supported: send the body with a Content-Length"}
	errExpectation = &headError{status: http.StatusExpectationFailed, code: "bad_request",
		msg: "only Expect: 100-continue is supported"}
)

// readHead reads and parses one request head from br into h, a zero head.
// It returns a *headError for a head the loop answers with an error status;
// any other error (end of input, a deadline) means the connection is done.
func readHead(br *bufio.Reader, h *head) error {
	budget := maxHeadBytes
	line, err := readLine(br, &budget)
	if err != nil {
		return err
	}
	if err := h.requestLine(line); err != nil {
		return err
	}
	var sawLength, sawHost, closeTok, keepTok bool
	for {
		line, err := readLine(br, &budget)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return badHead("bad header line")
		}
		name, value := line[:colon], line[colon+1:]
		for _, c := range value {
			if c < ' ' && c != '\t' || c == 0x7f {
				return badHead("control character in a header value")
			}
		}
		value = trimSpace(value)
		switch {
		case equalFold(name, "Content-Length"):
			if sawLength {
				return badHead("Content-Length given twice")
			}
			sawLength = true
			if h.length, err = parseLength(value); err != nil {
				return err
			}
		case equalFold(name, "Transfer-Encoding"):
			return errChunked
		case equalFold(name, "Connection"):
			for _, tok := range bytes.Split(value, []byte{','}) {
				tok = trimSpace(tok)
				closeTok = closeTok || equalFold(tok, "close")
				keepTok = keepTok || equalFold(tok, "keep-alive")
			}
		case equalFold(name, "Expect"):
			if !equalFold(value, "100-continue") {
				return errExpectation
			}
			h.expectContinue = true
		case equalFold(name, "Host"):
			if sawHost {
				return badHead("Host given twice")
			}
			sawHost = true
		}
	}
	// HTTP/1.1 keeps the connection unless told to close it; HTTP/1.0
	// closes it unless told to keep it.
	h.keepAlive = !closeTok && (h.proto11 || keepTok)
	h.expectContinue = h.expectContinue && h.proto11 && h.length > 0
	return nil
}

// readLine returns the next line of the head without its line ending (CRLF
// or a bare LF), charging it to budget. The line is only valid until the
// next read from br.
func readLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	*budget -= len(line)
	if err == bufio.ErrBufferFull || *budget < 0 {
		return nil, errHeadTooLarge
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// requestLine parses "METHOD /path[?query] HTTP/1.x". The target must be
// an absolute path of visible ASCII with no percent escapes and no
// fragment, which is all snapshotd's endpoints need; the path is the target
// up to any query.
func (h *head) requestLine(line []byte) error {
	method, rest, ok := bytes.Cut(line, []byte{' '})
	if !ok || !isToken(method) {
		return badHead("bad request line")
	}
	target, proto, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return badHead("bad request line")
	}
	switch string(proto) {
	case "HTTP/1.1":
		h.proto11 = true
	case "HTTP/1.0":
	default:
		return badHead("unsupported protocol version")
	}
	if len(target) == 0 || target[0] != '/' {
		return badHead("request target is not an absolute path")
	}
	for _, c := range target {
		if c <= ' ' || c >= 0x7f || c == '%' || c == '#' {
			return badHead("unsupported character in the request target")
		}
	}
	path, _, _ := bytes.Cut(target, []byte{'?'})
	h.method = intern(method, methods[:])
	h.path = intern(path, paths[:])
	return nil
}

var methods = [...]string{http.MethodGet, http.MethodPost, http.MethodHead}

// intern returns the entry of known equal to b, or a copy of b: a known
// method or path costs no allocation.
func intern(b []byte, known []string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// parseLength parses a Content-Length value: decimal digits only. Values
// over 18 digits are refused, so the result cannot overflow.
func parseLength(v []byte) (int64, error) {
	if len(v) == 0 || len(v) > 18 {
		return 0, badHead("bad Content-Length")
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, badHead("bad Content-Length")
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// isToken reports whether b is a non-empty RFC 9110 token, the syntax of
// methods and header names.
func isToken(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0:
		default:
			return false
		}
	}
	return true
}

func trimSpace(b []byte) []byte { return bytes.Trim(b, " \t") }

// equalFold reports whether b equals the ASCII string s, ignoring case.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range len(b) {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}
