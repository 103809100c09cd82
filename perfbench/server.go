package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one `tdc serve` process started by the benchmark.
type server struct {
	cmd       *exec.Cmd
	pid       int
	base      string // http://host:port of the API
	telemetry string // http://host:port of expvar, when started with it

	ready chan string // the API base URL, from stdout
	tel   chan string // the expvar address, from stderr
	done  chan struct{}

	mu      sync.Mutex
	stderr  []string // last lines, for error messages
	waitErr error

	stopOnce sync.Once
}

var (
	servingLine   = regexp.MustCompile(`^serving on (http://\S+)$`)
	telemetryLine = regexp.MustCompile(`telemetry server listening.*addr=(\S+)`)
)

// startServer execs `tdc serve` on the snapshot and returns once
// /v1/healthz has answered 200, with the time that took from exec.
func (r *runner) startServer(snapshot string, withTelemetry bool) (*server, time.Duration, error) {
	args := []string{"serve", "-model", snapshot, "-addr", "127.0.0.1:0"}
	if withTelemetry {
		args = append(args, "-telemetry-addr", "127.0.0.1:0")
	}
	s := &server{
		cmd:   exec.Command(r.tdc, args...),
		ready: make(chan string, 1),
		tel:   make(chan string, 1),
		done:  make(chan struct{}),
	}
	// The server must not outlive the benchmark, even when the
	// benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = &lineWriter{on: func(line string) {
		if m := servingLine.FindStringSubmatch(line); m != nil {
			offer(s.ready, m[1])
		}
	}}
	s.cmd.Stderr = &lineWriter{on: func(line string) {
		if m := telemetryLine.FindStringSubmatch(line); m != nil {
			offer(s.tel, "http://"+m[1])
		}
		s.mu.Lock()
		s.stderr = append(s.stderr, line)
		if len(s.stderr) > 20 {
			s.stderr = s.stderr[1:]
		}
		s.mu.Unlock()
	}}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting tdc serve: %w", err)
	}
	s.pid = s.cmd.Process.Pid
	go func() {
		err := s.cmd.Wait()
		s.mu.Lock()
		s.waitErr = err
		s.mu.Unlock()
		close(s.done)
	}()
	r.servers = append(r.servers, s)

	const startLimit = 60 * time.Second
	timeout := time.NewTimer(startLimit)
	defer timeout.Stop()
	select {
	case s.base = <-s.ready:
	case <-s.done:
		return nil, 0, s.failure("exited before serving")
	case <-timeout.C:
		return nil, 0, s.failure("did not start serving within " + startLimit.String())
	}
	if withTelemetry {
		select {
		case s.telemetry = <-s.tel:
		case <-s.done:
			return nil, 0, s.failure("exited before its telemetry listener came up")
		case <-timeout.C:
			return nil, 0, s.failure("printed no telemetry address")
		}
	}
	if err := waitHealthy(s.base, s.done); err != nil {
		return nil, 0, s.failure(err.Error())
	}
	return s, time.Since(start), nil
}

// offer sends v unless the one-slot channel is already full.
func offer(ch chan string, v string) {
	select {
	case ch <- v:
	default:
	}
}

func (s *server) failure(what string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Errorf("tdc serve %s (exit: %v); stderr tail:\n%s", what, s.waitErr, strings.Join(s.stderr, "\n"))
}

// waitHealthy polls /v1/healthz until it answers 200. Each attempt uses
// a fresh connection, so no idle connection is left behind.
func waitHealthy(base string, done <-chan struct{}) error {
	hc := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-done:
			return fmt.Errorf("exited before /v1/healthz answered")
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/v1/healthz did not answer 200 within 30s (last error: %v)", err)
		}
	}
}

// stop asks the server to drain and exit (SIGTERM), kills it if it has
// not exited within ten seconds, and waits for it either way. Only the
// first call does anything.
func (s *server) stop() error {
	var err error
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.mu.Lock()
		waitErr := s.waitErr
		s.mu.Unlock()
		// tdc serve installs its SIGTERM handler only after it starts
		// answering, so a SIGTERM soon after the first healthz may end it
		// by the signal's default action instead of a drain. Either way
		// it stopped because it was asked to.
		var exit *exec.ExitError
		if errors.As(waitErr, &exit) && exit.Sys().(syscall.WaitStatus).Signal() == syscall.SIGTERM {
			waitErr = nil
		}
		if waitErr != nil {
			err = s.failure("did not exit cleanly after SIGTERM")
		}
	})
	return err
}

// lineWriter hands each complete line written to it to on. exec copies
// a child's output into it from one goroutine.
type lineWriter struct {
	mu  sync.Mutex
	buf []byte
	on  func(line string)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.on(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
}
