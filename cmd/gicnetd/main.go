// Command gicnetd is the long-running scenario-serving daemon: it pins a
// fleet of worlds (a generator-seed sensitivity grid), shards them
// across executor pools with tiered caching, singleflight dedup and
// cross-request sweep batching (internal/serve), and answers scenario
// requests over HTTP.
//
// Usage:
//
//	gicnetd -addr :8459 -worlds 1859,1921,1989 -shards 4 -workers 2
//
// Endpoints:
//
//	POST /scenario  — body: a serve.Request JSON object; response: the
//	                  serve.Response, including the deterministic replay
//	                  fingerprint and provenance tag
//	GET  /stats     — per-shard tier counters and contraction stats
//	GET  /healthz   — liveness, pinned world count
//
// Example request:
//
//	curl -s localhost:8459/scenario -d '{"network":"submarine",
//	  "model":"uniform","p":0.1,"spacing_km":100,"trials":1024,"seed":7}'
//
// Every response's "fingerprint" equals the offline run of the echoed
// canonical request (sim.Run with the same configuration), whatever mix
// of cache, dedup and batching served it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gicnet/internal/dataset"
	"gicnet/internal/serve"
)

func main() {
	// Catch SIGINT/SIGTERM before anything else: a signal that arrives
	// while the worlds are generating, or once /healthz answers, must
	// still take the graceful shutdown path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.SetFlags(0)
	log.SetPrefix("gicnetd: ")

	addr := flag.String("addr", ":8459", "listen address")
	worlds := flag.String("worlds", strconv.FormatUint(dataset.DefaultSeed, 10),
		"comma-separated generator seeds to pin as the world fleet")
	shards := flag.Int("shards", 4, "shard count (each (world,network) pair is owned by one shard)")
	workers := flag.Int("workers", 2, "executor goroutines per shard, one arena each")
	resultCap := flag.Int("result-cache-cap", 4096, "result-tier entries per shard")
	planCap := flag.Int("plan-cache-cap", 64, "plan-tier entries per shard")
	maxTrials := flag.Int("max-trials", 1<<20, "reject requests above this trial budget")
	baseline := flag.Bool("baseline", false, "serve without any tiers (pricing mode)")
	flag.Parse()

	seeds, err := parseSeeds(*worlds)
	if err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{
		WorldSeeds:      seeds,
		Shards:          *shards,
		WorkersPerShard: *workers,
		ResultCacheCap:  *resultCap,
		PlanCacheCap:    *planCap,
		MaxTrials:       *maxTrials,
		Baseline:        *baseline,
	}
	if err := run(ctx, *addr, cfg, nil); err != nil {
		stop()
		log.Fatal(err)
	}
}

// run pins the worlds, serves HTTP on addr until ctx is cancelled, then
// shuts down gracefully: in-flight requests get ten seconds to finish and
// the executor pools are closed. ready, if non-nil, is called with the
// bound address once the listener accepts connections. A clean shutdown
// returns nil.
func run(ctx context.Context, addr string, cfg serve.Config, ready func(net.Addr)) error {
	log.Printf("pinning %d world(s): %v", len(cfg.WorldSeeds), cfg.WorldSeeds)
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: newMux(srv)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("serving on %s", ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("shutting down")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newMux routes the daemon's three endpoints to srv.
func newMux(srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/scenario", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a serve.Request JSON object", http.StatusMethodNotAllowed)
			return
		}
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
			return
		}
		resp, err := srv.Do(r.Context(), req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, serve.ErrServerClosed) {
				status = http.StatusServiceUnavailable
			} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusRequestTimeout
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, srv.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"ok": true, "worlds": len(srv.WorldSeeds())})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

func parseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		seed, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad world seed %q: %w", part, err)
		}
		seeds = append(seeds, seed)
	}
	if len(seeds) == 0 {
		return nil, errors.New("no world seeds given")
	}
	return seeds, nil
}
