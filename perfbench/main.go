// Command perfbench is gicnet's end-to-end benchmark. It drives one of
// three workloads from a single process — a Monte Carlo failure sweep
// (mc-sweep), the greedy planners (planning), and open-loop traffic
// against a real gicnetd over loopback HTTP (serve-open) — times only
// calls into the layers' public functions or the daemon, checks every
// answer, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around every layer call and reports the per-layer metrics
// instead, and writes the spans and the per-layer table under -out.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload mc-sweep --seed 7 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose answer digests are pinned in the source.
const defaultSeed = 1

// setupRepeats is how many times each workload sets up; setup_s is the
// median, which keeps a few slow starts from moving the gate.
const setupRepeats = 9

// runConfig is everything a workload needs from the command line.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Root     string // repository root (holds go.mod of gicnet)
	Gicnetd  string // path of the built gicnetd binary (serve-open)
	OutDir   string // where traced runs write their span files
	Nproc    int
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	SetupS    []float64 // one per set-up repeat, seconds
	WallS     float64
	Lat       latencySummary // end-to-end op latency
	Cold      latencySummary // ops whose answer was computed, not reused
	MemMB     float64
	Attempted int
	Failed    int
	Problems  []string // wrong answers, described
	PerLayer  map[string]float64
	Diag      map[string]any
	Spans     []Span
	Overhead  float64 // traced over untraced wall time on the same ops
	OverBase  string  // what the overhead ratio compares
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics every untraced run prints, on
// every workload (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"mem_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run prints, on every
// workload; a layer a workload never calls reports 0.
var perLayer = []metricDef{
	{"dataset.world_ms", "ms"},
	{"dataset.submarine_ms", "ms"},
	{"dataset.intertubes_ms", "ms"},
	{"dataset.itu_ms", "ms"},
	{"dataset.routers_ms", "ms"},
	{"crosslayer.compile_ms", "ms"},
	{"crosslayer.score_ns_per_trial", "ns"},
	{"failure.compile_ms", "ms"},
	{"failure.sample_ns_per_trial", "ns"},
	{"failure.evaluate_ns_per_trial", "ns"},
	{"topology.contract_ms", "ms"},
	{"topology.contraction_hit_ratio", "1"},
	{"topology.contraction_hits", "count"},
	{"topology.contraction_misses", "count"},
	{"sim.run_ms", "ms"},
	{"sim.trials_per_s", "1/s"},
	{"rare.is_ns_per_trial", "ns"},
	{"rare.qmc_ns_per_trial", "ns"},
	{"partition.recommend_ms", "ms"},
	{"recovery.plan_ms", "ms"},
	{"recovery.fleet_sweep_ms", "ms"},
	{"routing.route_ms", "ms"},
	{"shutdown.plan_ms", "ms"},
	{"scenario.run_ms", "ms"},
	{"serve.result_hit_ratio", "1"},
	{"serve.plan_hit_ratio", "1"},
	{"serve.dedup_share", "1"},
	{"serve.batch_size_mean", "count"},
	{"serve.errors", "count"},
	{"serve.cache_p50_ms", "ms"},
	{"serve.computed_p50_ms", "ms"},
	{"serve.dedup_p50_ms", "ms"},
	{"gicnetd.cpu_ms_per_req", "ms"},
	{"gicnetd.http_overhead_ms", "ms"},
	{"bench.conn_wait_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"mc-sweep":   runSweep,
	"planning":   runPlanning,
	"serve-open": runServe,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "mc-sweep, planning or serve-open")
	flag.Uint64Var(&cfg.Seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "nominal length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.Root, "root", ".", "gicnet repository root")
	flag.StringVar(&cfg.Gicnetd, "gicnetd", "", "gicnetd binary (serve-open)")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build", "directory for trace files")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Nproc = runtime.NumCPU()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want mc-sweep, planning or serve-open)", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(cfg.Root, "cmd", "gicnetd")); err != nil {
		return fmt.Errorf("-root %s is not a gicnet checkout: %w", cfg.Root, err)
	}
	env := environment(cfg)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	printJSONLine("env", env)

	canaryBefore := canary()
	o, err := fn(cfg)
	if err != nil {
		return err
	}
	canaryAfter := canary()

	o.Diag["setup_runs_s"] = o.SetupS
	o.Diag["canary_before_ms"] = canaryBefore
	o.Diag["canary_after_ms"] = canaryAfter
	if cfg.Trace {
		o.Diag["trace_overhead"] = o.Overhead
		o.Diag["trace_overhead_base"] = o.OverBase
	}

	vals := map[string]float64{}
	var defs []metricDef
	if cfg.Trace {
		defs = perLayer
		for _, d := range perLayer {
			vals[d.Name] = o.PerLayer[d.Name]
		}
		table := layerTable(o.Spans)
		path, err := writeTrace(filepath.Join(cfg.OutDir, "trace"), traceFile{
			Workload: cfg.Workload, Seed: cfg.Seed,
			TraceOverhead: o.Overhead, OverheadBase: o.OverBase,
			Layers: table, Metrics: vals, Spans: o.Spans,
		})
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		printLayerTable(table)
		fmt.Printf("trace: %d spans written to %s\n", len(o.Spans), path)
	} else {
		defs = endToEnd
		vals["setup_s"] = median(o.SetupS)
		vals["wall_s"] = o.WallS
		vals["p50_ms"] = o.Lat.P50
		vals["tail_ms"] = o.Lat.Tail
		vals["cold_p50_ms"] = o.Cold.P50
		vals["mem_mb"] = o.MemMB
	}
	samples := map[string]string{
		"setup_s":     fmt.Sprintf("n=%d", len(o.SetupS)),
		"p50_ms":      fmt.Sprintf("n=%d", o.Lat.N),
		"tail_ms":     fmt.Sprintf("p%.2f n=%d", o.Lat.TailPct, o.Lat.N),
		"cold_p50_ms": fmt.Sprintf("n=%d", o.Cold.N),
	}
	fmt.Printf("%-32s %14s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		fmt.Printf("%-32s %14.4f  %-6s %s\n", d.Name, vals[d.Name], d.Unit, samples[d.Name])
	}
	printJSONLine("diagnostics", o.Diag)
	for _, p := range o.Problems {
		fmt.Println("WRONG:", p)
	}

	correct := len(o.Problems) == 0 && o.Failed == 0 && o.Attempted > 0
	out := map[string]any{
		"correct":   correct,
		"attempted": o.Attempted,
		"failed":    o.Failed,
	}
	m := map[string]any{}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		m[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	out["metrics"] = m
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d of %d ops failed or answered wrongly", o.Failed, o.Attempted)
	}
	return nil
}

func printJSONLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s: %s\n", tag, b)
}

func printLayerTable(rows []layerRow) {
	fmt.Printf("%-32s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, r := range rows {
		fmt.Printf("%-32s %8d %12.2f %12.2f %10.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs, r.P50Ms)
	}
}

// environment records what a reader needs to compare two runs: cores,
// scheduler and GC settings, CPU model, toolchain, source identity, seed.
func environment(cfg runConfig) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	return map[string]any{
		"nproc":      cfg.Nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(cfg.Root),
		"source":     sourceDigest(cfg.Root),
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

// commit is the checkout's git commit, or "none" outside a git work tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file of the checkout, so
// runs outside a git work tree still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var canarySink uint64

// canary times a fixed integer loop (median of five) to show how fast the
// machine ran before and after the workload.
func canary() float64 {
	var d []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		canarySink += x
		d = append(d, ms(time.Since(t)))
	}
	return median(d)
}

// rtSnap is a runtime counter snapshot for deltas over a timed phase.
type rtSnap struct {
	gcCycles   uint64
	pauseNs    uint64
	allocBytes uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), pauseNs: m.PauseTotalNs}
}

// runtimeLayer fills the runtime.* per-layer metrics from two snapshots
// around a timed phase of ops operations.
func runtimeLayer(pl map[string]float64, before, after rtSnap, ops int) {
	pl["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	pl["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	if ops > 0 {
		pl["runtime.alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1e6 / float64(ops)
	}
}

// cpuClock is this process's user+system CPU time and the machine's
// steal time (CPU time the hypervisor gave to other guests), read
// around a timed phase: a slow run with no more CPU time but more
// steal was slowed from outside.
type cpuClock struct{ proc, steal time.Duration }

func readCPU() cpuClock {
	var c cpuClock
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		// "cpu  user nice system idle iowait irq softirq steal ..."
		f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
		if len(f) > 8 {
			if v, err := strconv.ParseUint(f[8], 10, 64); err == nil {
				c.steal = time.Duration(v) * clockTick
			}
		}
	}
	return c
}

// cpuDiag records the CPU and steal seconds spent between two readings.
func cpuDiag(diag map[string]any, a, b cpuClock) {
	diag["cpu_s"] = (b.proc - a.proc).Seconds()
	diag["steal_s"] = (b.steal - a.steal).Seconds()
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// mix64 is the splitmix64 finalizer: a bijective 64-bit mixer used to pick
// seeded samples of ops and for order-independent answer digests.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// digest accumulates (op id, answer fingerprint) pairs into one value that
// does not depend on the order ops completed in.
type digest uint64

func (d *digest) add(opID int, fp uint64) {
	*d += digest(mix64(uint64(opID)*0x9e3779b97f4a7c15 ^ fp))
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }
