package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"partialsnapshot/internal/server"
)

// buildDaemon compiles cmd/snapshotd from the checkout at root into the
// benchmark's build directory and returns the binary's path.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "snapshotd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/snapshotd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building snapshotd: %w", err)
	}
	return bin, nil
}

// daemon is one running snapshotd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
	ctl    *http.Client  // control traffic: health, stats, conformance
}

// freeLoopbackAddr returns a loopback address whose port was free a moment
// ago. The daemon binds it right after; a clash fails setup loudly.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches bin serving components components and returns once
// /healthz answers 200, with the time from launch to that answer.
func startDaemon(bin string, components int) (*daemon, time.Duration, error) {
	return launch("snapshotd", func(addr string) *exec.Cmd {
		return exec.Command(bin, "-addr", addr, "-components", strconv.Itoa(components))
	})
}

// startReference launches the reference server (see serveReference), a
// second instance of this benchmark's own binary.
func startReference() (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d, _, err := launch("reference server", func(addr string) *exec.Cmd {
		return exec.Command(self, "--reference-server", addr)
	})
	return d, err
}

// launch starts the server command builds for a free loopback address and
// returns once its /healthz answers 200, with the time from launch to that
// answer.
func launch(name string, command func(addr string) *exec.Cmd) (*daemon, time.Duration, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("finding a free port: %w", err)
	}
	d := &daemon{
		base: "http://" + addr,
		done: make(chan struct{}),
		ctl:  &http.Client{Timeout: 60 * time.Second},
	}
	d.cmd = command(addr)
	d.cmd.Stderr = &d.stderr
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := start.Add(30 * time.Second)
	for {
		if d.healthy() {
			return d, time.Since(start), nil
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("%s exited during start-up: %v: %s", name, d.err, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("%s did not answer /healthz within 30s", name)
		}
		sleepFor(100 * time.Microsecond)
	}
}

// timeLaunches starts the daemon k times, each time until its first
// /healthz 200, and returns the set-up times in seconds. Each daemon is
// killed, not drained: snapshotd answers /healthz before it installs its
// SIGINT handler, so an early SIGINT is fatal.
func timeLaunches(bin string, components, k int) ([]float64, error) {
	var out []float64
	for i := 0; i < k; i++ {
		d, took, err := startDaemon(bin, components)
		if err != nil {
			return nil, err
		}
		d.kill()
		out = append(out, took.Seconds())
	}
	return out, nil
}

func (d *daemon) healthy() bool {
	resp, err := d.ctl.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill stops the daemon without a drain and waits for it to exit.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// drain sends SIGINT and waits for the daemon to exit. The daemon re-checks
// its recorded history on the way out; anything but exit 0 with the
// "conformance OK" line is a failed run.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("signalling snapshotd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("snapshotd did not exit within 60s of SIGINT")
	}
	if d.err != nil {
		return fmt.Errorf("snapshotd drain: %v: %s", d.err, strings.TrimSpace(d.stderr.String()))
	}
	if !strings.Contains(d.stderr.String(), "conformance OK") {
		return fmt.Errorf("snapshotd exited 0 without the conformance OK line: %s", strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

// statsSnapshot is GET /stats decoded generically: a counter the daemon
// stops reporting reads 0 instead of breaking the benchmark's build.
type statsSnapshot map[string]any

func (d *daemon) stats() (statsSnapshot, error) {
	resp, err := d.ctl.Get(d.base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats returned %d", resp.StatusCode)
	}
	var st statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

func (s statsSnapshot) num(key string) float64 {
	v, _ := s[key].(float64)
	return v
}

func (s statsSnapshot) object(key string) float64 {
	obj, _ := s["object_stats"].(map[string]any)
	v, _ := obj[key].(float64)
	return v
}

func (s statsSnapshot) impl() string {
	v, _ := s["impl"].(string)
	return v
}

// conformance runs GET /conformance and returns the number of ops checked.
func (d *daemon) conformance() (int, error) {
	resp, err := d.ctl.Get(d.base + "/conformance")
	if err != nil {
		return 0, fmt.Errorf("reading /conformance: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("reading /conformance: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("conformance failed (%d): %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var cr server.ConformanceResp
	if err := json.Unmarshal(body, &cr); err != nil {
		return 0, fmt.Errorf("decoding /conformance: %w", err)
	}
	if !cr.OK {
		return 0, errors.New("conformance response not ok")
	}
	return cr.CheckedOps, nil
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	// USER_HZ is 100 on every Linux architecture Go supports.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer has no failure mode on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepFor blocks the calling thread in nanosleep with the kernel's timer
// slack cut to 1ns, which wakes within microseconds; the Go timer wheel
// rounds short sleeps of an idle process up to about a millisecond, which
// would swamp loopback latency.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		err := syscall.Nanosleep(&ts, &left)
		if err != syscall.EINTR {
			return
		}
		ts = left
	}
}
