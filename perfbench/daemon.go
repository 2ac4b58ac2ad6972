package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gicnet/internal/serve"
)

// daemon is one gicnetd process started by the benchmark with its shipped
// flags, listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error // receives cmd.Wait's result once
	done   bool
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon starts gicnetd and waits until /healthz answers, returning
// the time from exec to healthy.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	t := time.Now()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// If the benchmark dies without stopping the daemon, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start gicnetd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(t), nil
			}
		}
		select {
		case err := <-d.exited:
			d.done = true
			return nil, 0, fmt.Errorf("gicnetd exited before it was healthy: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, 0, errors.New("gicnetd not healthy after 60s")
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after ten
// seconds), and reports how it ended. gicnetd installs its SIGTERM handler
// just after it starts serving, so a SIGTERM sent as soon as /healthz
// first answers can end it by the signal's default action instead; that
// is the stop that was asked for, not a failure.
func (d *daemon) stop() error {
	if d == nil || d.done {
		return nil
	}
	d.done = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("gicnetd ignored SIGTERM: %v", <-d.exited)
	}
}

func (d *daemon) stats(ctx context.Context, c *http.Client) (serve.Stats, error) {
	var s serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// post sends one scenario request and decodes the response.
func (d *daemon) post(ctx context.Context, c *http.Client, r serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/scenario", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// cpuTicks reads the daemon's user+system CPU time, in clock ticks, from
// /proc/<pid>/stat.
func (d *daemon) cpuTicks() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	k, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + k, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times; it is
// 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// rssMB reads the daemon's resident set size from /proc/<pid>/status.
func (d *daemon) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1000, err
			}
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}
