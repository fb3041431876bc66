package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"testing"
)

// Request heads as real clients send them, for the fuzz seeds.
const (
	goClientScan = "POST /scan HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\n" +
		"Content-Length: 11\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n{\"ids\":[1]}"
	goClientGet = "GET /stats HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n"
	curlPost    = "POST /update HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n" +
		"Content-Length: 22\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\n{\"ids\":[0],\"vals\":[5]}"
	curlExpect = "POST /scan HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n" +
		"Content-Length: 1100\r\nContent-Type: application/x-www-form-urlencoded\r\nExpect: 100-continue\r\n\r\n"
	curl10    = "POST /scan HTTP/1.0\r\nHost: 127.0.0.1:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nContent-Length: 11\r\n\r\n{\"ids\":[1]}"
	curlClose = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nConnection: close\r\n\r\n"
)

// FuzzReadHead checks the connection loop's head parser against
// http.ReadRequest on the same bytes: no input may panic it, and every head
// it accepts http.ReadRequest accepts too, with the same method, path,
// Content-Length and keep-alive decision. Inputs may hold several
// pipelined requests; both parsers skip each body and go on to the next.
func FuzzReadHead(f *testing.F) {
	for _, seed := range []string{
		goClientScan, goClientGet, curlPost, curlExpect, curl10, curlClose,
		goClientScan + goClientGet,
		curlPost + curl10,
		"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /healthz HTTP/1.1\n\n",
		"GET /scan?x=1 HTTP/1.1\r\n\r\n",
		"POST /scan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST /scan HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
		"GARBAGE\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ours := bufio.NewReaderSize(bytes.NewReader(data), maxHeadBytes)
		theirs := bufio.NewReader(bytes.NewReader(data))
		for range 4 {
			var h head
			if err := readHead(ours, &h); err != nil {
				return
			}
			req, err := http.ReadRequest(theirs)
			if err != nil {
				t.Fatalf("accepted a head http.ReadRequest refuses (%v): %q", err, data)
			}
			if req.Method != h.method || req.URL.Path != h.path || req.ContentLength != h.length || req.Close == h.keepAlive {
				t.Fatalf("parsed %q as %s %s length %d keep-alive %v; http.ReadRequest: %s %s length %d close %v",
					data, h.method, h.path, h.length, h.keepAlive, req.Method, req.URL.Path, req.ContentLength, req.Close)
			}
			if h.length > MaxBodyBytes {
				return // the loop answers 413 and closes
			}
			if _, err := io.CopyN(io.Discard, ours, h.length); err != nil {
				return
			}
			if _, err := io.Copy(io.Discard, req.Body); err != nil {
				t.Fatalf("http.ReadRequest's body failed where the loop's did not: %v: %q", err, data)
			}
		}
	})
}
