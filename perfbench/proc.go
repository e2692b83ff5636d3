package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// server is one running `goblaz serve` process.
type server struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port the process bound
	done chan struct{}
}

// startServe launches `goblaz serve -addr 127.0.0.1:0 args...` (flags before
// mounts: flag parsing stops at the first mount), waits for
// it to print its bound address and answer /readyz, and returns it. The
// process's stderr (its access log) goes to dir/name.log.
func startServe(ctx context.Context, bin, dir, name string, args ...string) (*server, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The kernel kills the server if the benchmark dies first, so no
	// run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "serving ") {
				if i := strings.LastIndex(line, " on "); i >= 0 {
					addrCh <- strings.TrimSpace(line[i+4:])
				}
			}
		}
		_ = cmd.Wait() // the exit status of a server we stop is not interesting
	}()
	select {
	case s.addr = <-addrCh:
	case <-s.done:
		return nil, fmt.Errorf("%s exited before serving (see %s.log)", name, filepath.Join(dir, name))
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not start within 60s", name)
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	if err := s.waitReady(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// url returns the server's base URL plus path.
func (s *server) url(path string) string { return "http://" + s.addr + path }

func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s never became ready", s.name)
}

// stop asks the server to shut down and waits for it to exit, killing it
// if it lingers.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from /proc.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// snapshot scrapes the server's /v1/debug/metrics.
func (s *server) snapshot() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(s.url("/v1/debug/metrics"))
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s metrics: HTTP %d", s.name, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// fleet is the set of servers one workload runs against.
type fleet []*server

func (f fleet) stop() {
	for i := len(f) - 1; i >= 0; i-- {
		f[i].stop()
	}
}

func (f fleet) peakRSSMiB() (float64, error) {
	var total float64
	for _, s := range f {
		v, err := s.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// snapshots scrapes every server; the result is indexed like f.
func (f fleet) snapshots() ([]obs.Snapshot, error) {
	out := make([]obs.Snapshot, len(f))
	for i, s := range f {
		snap, err := s.snapshot()
		if err != nil {
			return nil, err
		}
		out[i] = snap
	}
	return out, nil
}
