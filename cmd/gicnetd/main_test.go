package main

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/serve"
)

// TestMain lets the subprocess test run the real main: with
// GICNETD_TEST_MAIN=1 the test binary is gicnetd, flags taken from
// GICNETD_TEST_ARGS.
func TestMain(m *testing.M) {
	if os.Getenv("GICNETD_TEST_MAIN") == "1" {
		os.Args = append([]string{"gicnetd"}, strings.Fields(os.Getenv("GICNETD_TEST_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testConfig() serve.Config {
	return serve.Config{WorldSeeds: []uint64{dataset.DefaultSeed}, Shards: 1, WorkersPerShard: 1}
}

// waitGoroutines waits until no more goroutines run than before, and
// fails with every stack if some are left.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left running, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunShutsDownCleanly cancels run's context right after it starts
// serving, and right away before it starts: both must return nil and
// leave no goroutine behind.
func TestRunShutsDownCleanly(t *testing.T) {
	t.Run("after-start", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ready := func(addr net.Addr) {
			client := &http.Client{Timeout: 10 * time.Second}
			resp, err := client.Get("http://" + addr.String() + "/healthz")
			if err != nil {
				t.Errorf("healthz: %v", err)
			} else {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("healthz status %d", resp.StatusCode)
				}
			}
			client.CloseIdleConnections()
			cancel()
		}
		if err := run(ctx, "127.0.0.1:0", testConfig(), ready); err != nil {
			t.Fatalf("run: %v", err)
		}
		waitGoroutines(t, before)
	})
	t.Run("before-start", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := run(ctx, "127.0.0.1:0", testConfig(), nil); err != nil {
			t.Fatalf("run: %v", err)
		}
		waitGoroutines(t, before)
	})
}

// TestSIGTERMDuringStartupExitsCleanly sends SIGTERM to a real gicnetd
// process while it is still pinning its worlds, before it serves. The
// handler is installed first thing in main, so the process must take the
// graceful path and exit 0 rather than die of the signal.
func TestSIGTERMDuringStartupExitsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess world generation skipped in short mode")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GICNETD_TEST_MAIN=1",
		"GICNETD_TEST_ARGS=-addr 127.0.0.1:0 -shards 1 -workers 1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stderr)
	for lines.Scan() && !strings.Contains(lines.Text(), "pinning") {
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain the rest of the log, then reap the process; the pipe must be
	// read to EOF before Wait.
	var log strings.Builder
	exited := make(chan error, 1)
	go func() {
		for lines.Scan() {
			log.WriteString(lines.Text() + "\n")
		}
		exited <- cmd.Wait()
	}()
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("gicnetd ended with %v after SIGTERM; log:\n%s", ee.ProcessState, log.String())
		} else if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log.String(), "shutting down") {
			t.Errorf("no graceful shutdown logged:\n%s", log.String())
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("gicnetd did not exit within 60s of SIGTERM")
	}
}
