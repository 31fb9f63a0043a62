// Command perfbench runs the shipped verifier configuration in-process,
// end to end over loopback TCP, and prints its end-to-end metrics (or,
// with --trace 1, its per-layer metrics) as JSON.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload steady|tamper|failover --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the full
// report: host, seed, every metric with its unit and sample count, the
// workload's own named metrics, per-layer self time and the correctness
// checks. State lives under .bench_build/ in the working directory and is
// removed when the run ends.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workers  int
	dir      string
	tr       *tracer // nil in untraced runs
	p        *probe  // nil in untraced runs
}

// metric is one reported number with its unit and sample count. NaN (a
// percentile the sample cannot support) prints as null.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func (m metric) MarshalJSON() ([]byte, error) {
	type out struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
		N     int      `json:"n"`
	}
	o := out{Unit: m.Unit, N: m.N}
	if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
		o.Value = &m.Value
	}
	return json.Marshal(o)
}

// check is one end-of-run correctness assertion.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload hands back to run.
type outcome struct {
	e2e       map[string]metric // the end-to-end metrics BENCHMARK.json declares
	named     map[string]metric // the workload's metrics under their own names
	layers    map[string]metric
	attempted int
	failed    int
	checks    []check
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, named: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return len(o.checks) > 0
}

// declared is a metric BENCHMARK.json declares, with its unit.
type declared struct{ name, unit string }

// The metrics BENCHMARK.json declares: every workload reports all of
// them. The per-layer list keeps the metrics every workload can measure;
// the report line carries the rest.
var (
	e2eDeclared = []declared{
		{"setup_s", "s"}, {"rounds_per_s", "1/s"}, {"heap_mb", "MB"},
		{"sweep_ms_p50", "ms"}, {"verdict_ms_p50", "ms"},
	}
	layerDeclared = []declared{
		{"transport.round_us_p50", "us"}, {"transport.round_us_p95", "us"},
		{"transport.bytes_per_round", "B"}, {"transport.dials", "count"},
		{"agent.full_quote_us_p50", "us"},
		{"verifier.session_rounds_per_sweep", "count"}, {"verifier.full_rounds_per_sweep", "count"},
		{"verifier.forced_full_per_sweep", "count"},
		{"store.bytes_per_sweep", "B"}, {"store.fsyncs_per_sweep", "count"},
		{"audit.fsync_ms_p50", "ms"}, {"audit.bytes_per_sweep", "B"}, {"audit.fsyncs_per_sweep", "count"},
		{"webhook.outbox_fsyncs", "count"}, {"webhook.pending_max", "count"},
		{"runtime.alloc_bytes_per_round", "B"}, {"runtime.gc_cpu_fraction", "ratio"},
		{"custody.verify_ms", "ms"}, {"custody.records", "count"},
		{"self.verifier_us_per_round", "us"}, {"self.transport_us_per_round", "us"},
		{"self.agent_us_per_round", "us"}, {"self.store_us_per_round", "us"},
		{"self.audit_us_per_round", "us"},
	}
)

var workloads = map[string]func(*config) (*outcome, error){
	"steady":   runSteady,
	"tamper":   runTamper,
	"failover": runFailover,
}

func run() error {
	var (
		workload = flag.String("workload", "", "steady, tamper or failover")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 installs the per-layer wrappers and reports per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want steady, tamper or failover)", *workload)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	base, err := filepath.Abs(filepath.Join(".bench_build", "runs"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fmt.Errorf("creating state root: %w", err)
	}
	dir, err := os.MkdirTemp(base, *workload+"-")
	if err != nil {
		return fmt.Errorf("creating state directory: %w", err)
	}
	defer os.RemoveAll(dir)

	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: nproc, dir: dir}
	if cfg.trace {
		cfg.tr = newTracer()
		cfg.p = newProbe(cfg.tr)
	}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	decl, values := e2eDeclared, out.e2e
	if cfg.trace {
		decl, values = layerDeclared, out.layers
	}
	final := map[string]metric{}
	for _, d := range decl {
		m, ok := values[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (samples %d)", d.name, m.N)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		final[d.name] = m
	}
	rep := map[string]any{
		"host":     hostInfo(cfg),
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"metrics":  out.e2e,
		"named":    out.named,
		"layers":   out.layers,
		"checks":   out.checks,
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return err
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := map[string]short{}
	for n, m := range final {
		last[n] = short{Value: m.Value, Unit: m.Unit}
	}
	if err := enc.Encode(map[string]any{
		"correct":   out.correct(),
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   last,
	}); err != nil {
		return err
	}
	return w.Flush()
}

// hostInfo records where the numbers came from; figures compare only
// between runs on the same host.
func hostInfo(cfg *config) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"hostname":    host,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"state_fs":    fsType(cfg.dir),
		"peak_rss_mb": peakRSS(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSS is the process's peak resident set in MB, from its own status
// file; nil where that is unavailable.
func peakRSS() any {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return nil
}

// fsType names the filesystem holding the state directory.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// median reports a sample's median as a metric.
func median(s *sample, unit string) metric {
	return metric{Value: s.median(), Unit: unit, N: s.n()}
}

// pct reports percentile p, or NaN when the sample cannot support it.
func pct(s *sample, p float64, unit string) metric {
	v, _ := s.percentile(p)
	return metric{Value: v, Unit: unit, N: s.n()}
}

// withTail adds, next to a timing's median, the highest percentile the
// sample supports (at least ten samples beyond it), named <base>_p<N>.
func withTail(m map[string]metric, base string, s *sample, unit string) {
	if p, v, ok := s.tail(); ok {
		m[fmt.Sprintf("%s_p%g", base, p)] = metric{Value: v, Unit: unit, N: s.n()}
	}
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// timeSetups runs setup setupRepeats times, tearing down all but the last,
// and returns the median setup time.
func timeSetups(setup func() (time.Duration, error), teardown func()) (metric, error) {
	var s sample
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown()
		}
		d, err := setup()
		if err != nil {
			return metric{}, err
		}
		s.add(d.Seconds())
	}
	return median(&s, "s"), nil
}

// heapMB is the live heap after a forced collection.
func heapMB() metric {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return metric{Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MB", N: 1}
}

// cpuSnap reads the runtime's cumulative CPU and allocation counters.
type cpuSnap struct {
	gcCPU, totalCPU, allocBytes float64
}

func readCPU() cpuSnap {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return math.NaN()
	}
	return cpuSnap{gcCPU: val(ss[0]), totalCPU: val(ss[1]), allocBytes: val(ss[2])}
}
