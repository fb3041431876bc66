package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// daemonEnv makes the test binary run main instead of the tests, so a test
// can launch the real daemon as a child process.
const daemonEnv = "SNAPSHOTD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// fullPipe returns a pipe whose buffer is already full, so the first write
// to w blocks until r is drained.
func fullPipe(t *testing.T) (r, w *os.File) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'.'}, 4096)
	for {
		if _, err := w.Write(chunk); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal(err)
			}
			break
		}
	}
	return r, w
}

// TestSIGINTRightAfterFirstHealthyProbe launches the daemon, polls /healthz
// from the moment it starts, and sends SIGINT the instant the first probe
// answers 200. The daemon must drain, pass its shutdown conformance check
// and exit 0: the signal handler has to be in place before anything can
// answer a probe. The daemon's stderr is a full pipe until the signal has
// been sent, so its start-up log line blocks it at that point for as long
// as the test likes — a handler installed after the log line would let the
// SIGINT kill it every time.
func TestSIGINTRightAfterFirstHealthyProbe(t *testing.T) {
	client := &http.Client{Timeout: time.Second}
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0], "-addr", addr, "-components", "8")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	r, w := fullPipe(t)
	defer r.Close()
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			<-done
			t.Fatal("daemon never answered /healthz")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// Draining the pipe unblocks the daemon; it reaches EOF once the
	// daemon has exited.
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- bytes.TrimLeft(b, ".")
	}()
	select {
	case err := <-done:
		if log := <-out; err != nil {
			t.Fatalf("SIGINT after the first healthy probe: %v: %s", err, log)
		} else if !bytes.Contains(log, []byte("conformance OK")) {
			t.Fatalf("exited 0 without the conformance OK line: %s", log)
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("daemon did not exit within 30s of SIGINT: %s", <-out)
	}
}
