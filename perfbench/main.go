// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the warpd serving tier for a
// fixed window, checks every output, and prints each metric by name
// with its unit and sample count. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, taken from spans the benchmark records
// around its calls into each layer and from a CPU profile of the
// traced half of the run. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig9 --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"warped/perfbench/benchlayers"
)

// campaignWorkers is the simulation concurrency of the campaign
// workloads. servingWorkers is the number of warpd workers behind the
// coordinator in warpd-mix, and the pool size of its correctness
// check's direct runs; clients is its closed-loop client count. The
// machine the benchmark was defined on has two CPUs, yet the campaigns
// keep one simulation worker: in interleaved runs there, one worker's
// run-to-run spread was a fifth to two thirds of two workers' (README.md,
// "Noise").
const (
	campaignWorkers = 1
	servingWorkers  = 2
	clients         = 2
)

// setupReps is how many timed set-ups a run makes, after a first one
// that is not timed: it pays for cold code pages and heap growth,
// which only the first set-up of a process sees. setup_s is the median
// of the timed ones.
const setupReps = 7

// e2eNames are the end-to-end metrics of the result line with
// --trace 0; every workload reports each of them. BENCHMARK.json
// declares the same list (pinned by a test).
var e2eNames = []string{
	"setup_s", "jobs_per_s", "ns_per_warp_instr", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb",
}

// layerNames are the per-layer metrics of the result line with
// --trace 1. Every workload measures each of them, except the serving
// tier's counts (servingCounts) on the campaigns, which report 0.
// The serving tier's timings (client.submit_ms_p50, client.wait_ms_p50,
// cluster.handler_ms_p50, cluster.dispatch_ms_p50/p99,
// service.handler_ms_p50, service.job_ms_p50) exist on warpd-mix only,
// so they are printed with the other figures rather than carried here.
var layerNames = []string{
	"trace.overhead_frac",
	"sim.self_frac", "sim.launch_busy_s", "sim.new_busy_s", "sim.idle_slot_frac", "sim.cycles", "sim.warp_instrs",
	"core.self_frac", "core.replayq_enqueued", "core.coexec_replays", "core.idle_drains", "core.stall_cycles", "core.coverage",
	"exec.self_frac", "exec.simd_util", "exec.divergent_branches",
	"mem.self_frac", "cache.self_frac", "mem.global_accesses", "mem.shared_accesses", "mem.reg_bank_conflict_cycles",
	"cache.l1_hit_rate", "cache.l2_hit_rate",
	"runtime.self_frac", "runtime.alloc_bytes_per_warp_instr", "runtime.gc_cpu_frac",
	"runner.busy_frac", "runner.tail_s", "kernels.build_busy_s", "kernels.check_busy_s",
	"client.polls_per_job", "net.self_frac", "encoding.self_frac",
	"cluster.self_frac", "cluster.worker_polls_per_dispatch", "cluster.dispatches", "cluster.coalesced",
	"cluster.cache_hits", "cluster.store_hits", "cluster.redispatches",
	"service.self_frac", "service.cache_hits", "service.cache_misses",
	"service.coalesced", "service.executed", "service.rejected",
	"store.open_s", "store.put_ms_p50", "store.put_ms_p99", "store.get_ms_p50", "store.writes", "store.hits", "store.misses",
	"asm.assemble_verified_ms_p50",
}

// servingCounts are the per-layer counts of the serving tier, which
// the campaign workloads never call: there they report 0. Any other
// per-layer metric a run does not measure is an error.
var servingCounts = []string{
	"client.polls_per_job",
	"cluster.worker_polls_per_dispatch", "cluster.dispatches", "cluster.coalesced",
	"cluster.cache_hits", "cluster.store_hits", "cluster.redispatches",
	"service.cache_hits", "service.cache_misses", "service.coalesced", "service.executed", "service.rejected",
	"store.writes", "store.hits", "store.misses",
}

// profiledLayers get a <layer>.self_frac metric from the CPU profile.
var profiledLayers = []string{"sim", "core", "exec", "mem", "cache", "runtime", "net", "encoding", "cluster", "service"}

// workloadRun is the state of one benchmark invocation.
type workloadRun struct {
	name   string
	seed   int64
	window time.Duration
	trace  bool
	tracer *tracer

	attempted int
	failures  []string
	metrics   map[string]metric // the result line's candidates
	infos     map[string]metric // printed, not in the result line
	setupS    []float64
}

func (w *workloadRun) fail(msg string) { w.failures = append(w.failures, msg) }

// e2e records an end-to-end metric.
func (w *workloadRun) e2e(name string, v float64, unit string, n int) {
	w.metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

// layer records a per-layer metric in the unit layerUnit gives it.
func (w *workloadRun) layer(name string, v float64, n int) {
	w.metrics[name] = metric{Value: v, Unit: layerUnit(name), Samples: n}
}

// info records a reported figure that is not part of the result line.
func (w *workloadRun) info(name string, v float64, unit string, n int) {
	w.infos[name] = metric{Value: v, Unit: unit, Samples: n}
}

// e2eTail reports, beside the fixed p99, the highest percentile of xs
// that has at least ten samples beyond it.
func (w *workloadRun) e2eTail(prefix string, xs []float64) {
	q := tailQuantile(len(xs))
	w.info(fmt.Sprintf("%s_p%s_ms", prefix, strconv.FormatFloat(100*q, 'f', -1, 64)), quantile(xs, q), "ms", len(xs))
}

// setup runs fn once untimed and then setupReps times timed, and
// records the median duration as setup_s. The state the last
// repetition leaves behind is what the timed window uses.
func (w *workloadRun) setup(fn func() error) error {
	for i := 0; i <= setupReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if d := time.Since(start).Seconds(); i == 0 {
			w.info("setup_cold_s", d, "s", 1)
		} else {
			w.setupS = append(w.setupS, d)
		}
	}
	w.e2e("setup_s", median(w.setupS), "s", len(w.setupS))
	return nil
}

// rssPeak records the process's peak resident set so far.
func (w *workloadRun) rssPeak() {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		w.fail("peak_rss_mb: " + err.Error())
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				w.fail("peak_rss_mb: " + err.Error())
				return
			}
			w.e2e("peak_rss_mb", kb/1024, "MiB", 1)
			return
		}
	}
	w.fail("peak_rss_mb: no VmHWM in /proc/self/status")
}

// layerFracs records each profiled layer's share of CPU self time.
func (w *workloadRun) layerFracs(p *profileWindow) {
	n := int(p.attr.Total / int64(10*time.Millisecond)) // samples at the default 100 Hz
	for _, l := range profiledLayers {
		w.layer(l+".self_frac", p.attr.Frac(l), n)
	}
	var parts []string
	for _, l := range p.attr.Sorted() {
		parts = append(parts, fmt.Sprintf("%s=%.3f", l, p.attr.Frac(l)))
	}
	fmt.Println("profile self-time by layer:", strings.Join(parts, " "))
}

// cpuWindow is a CPU profile plus allocation and GC accounting over
// the traced part of a run.
type cpuWindow struct {
	buf       bytes.Buffer
	alloc0    uint64
	gc0, cpu0 float64
}

type profileWindow struct {
	attr       *benchlayers.Attribution
	allocBytes int64
	gcFrac     float64
}

func startCPUWindow() (*cpuWindow, error) {
	c := &cpuWindow{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc0 = ms.TotalAlloc
	c.gc0, c.cpu0 = gcCPU()
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return c, nil
}

func (c *cpuWindow) stop() (*profileWindow, error) {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := gcCPU()
	attr, err := benchlayers.Attribute(c.buf.Bytes())
	if err != nil {
		return nil, err
	}
	p := &profileWindow{attr: attr, allocBytes: int64(ms.TotalAlloc - c.alloc0)}
	if cpu > c.cpu0 {
		p.gcFrac = (gc - c.gc0) / (cpu - c.cpu0)
	}
	return p, nil
}

// gcCPU returns the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 && s[1].Value.Kind() == rtmetrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// provenance describes where and how the numbers were taken.
func provenance(w *workloadRun) map[string]any {
	p := map[string]any{
		"workload":   w.name,
		"seed":       w.seed,
		"seconds":    w.window.Seconds(),
		"trace":      w.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"workers":    campaignWorkers,
		"clients":    0,
		"commit":     "unknown",
		"note": "numbers from different machines are never compared: a change is judged only against " +
			"its parent measured on the same machine (BENCH_baseline.json's single 1-CPU run is the counter-example)",
	}
	if w.name == "warpd-mix" {
		p["workers"], p["clients"] = servingWorkers, clients
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outDir holds spans and result files; it sits in the build directory
// the repository ignores.
const outDir = ".bench_build/perfbench"

func main() {
	var (
		workload = flag.String("workload", "", "fig9 | dense-nodmr | warpd-mix")
		seed     = flag.Int64("seed", 1, "seed of the workload's generated inputs")
		seconds  = flag.Int("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: per-layer run (spans, CPU profile); 0: end-to-end run")
		pin      = flag.String("pin-digests", "", "write the campaign workloads' stats digests to this file and exit")
	)
	flag.Parse()
	ctx := context.Background()
	if *pin != "" {
		if err := pinDigests(ctx, *pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w := &workloadRun{
		name: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		metrics: map[string]metric{}, infos: map[string]metric{},
	}
	if w.trace {
		w.tracer = newTracer()
	}
	if err := run(ctx, w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(w.failures) > 0 {
		os.Exit(1)
	}
}

func run(ctx context.Context, w *workloadRun) error {
	switch w.name {
	case "fig9":
		return campaign(ctx, w, fig9Grid(), true)
	case "dense-nodmr":
		g, err := denseGrid()
		if err != nil {
			return err
		}
		return campaign(ctx, w, g, false)
	case "warpd-mix":
		return warpdMix(ctx, w)
	}
	return fmt.Errorf("unknown workload %q (want fig9, dense-nodmr or warpd-mix)", w.name)
}

// report prints provenance, every metric with unit and sample count,
// writes the spans and the result file, and prints the result line
// last.
func report(w *workloadRun) error {
	failed := len(w.failures)
	attempted := max(w.attempted, 1)
	w.info("error_rate", float64(failed)/float64(attempted), "ratio", attempted)

	prov := provenance(w)
	provLine, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Println("provenance", string(provLine))
	for _, msg := range w.failures {
		fmt.Println("FAIL", msg)
	}
	names := e2eNames
	if w.trace {
		names = layerNames
		if w.name != "warpd-mix" {
			for _, n := range servingCounts {
				if _, ok := w.metrics[n]; !ok {
					w.metrics[n] = metric{Unit: layerUnit(n)}
				}
			}
		}
	}
	all := map[string]metric{}
	for k, v := range w.infos {
		all[k] = v
	}
	for k, v := range w.metrics {
		all[k] = v
	}
	for _, n := range sortedNames(all) {
		m := all[n]
		fmt.Printf("metric %-36s %14.6g %-7s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, n := range names {
		m, ok := w.metrics[n]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", w.name, n)
		}
		res.Metrics[n] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	traceFlag := 0
	if w.trace {
		traceFlag = 1
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, w.seed, traceFlag))
	out := map[string]any{"provenance": prov, "metrics": all, "failures": w.failures, "setup_s": w.setupS}
	if w.trace {
		self := selfTimes(w.tracer.snapshot())
		selfS := map[string]float64{}
		var parts []string
		for _, n := range sortedNames(self) {
			selfS[n] = self[n].Seconds()
			parts = append(parts, fmt.Sprintf("%s=%.3fs", n, selfS[n]))
		}
		fmt.Println("span self time by name:", strings.Join(parts, " "))
		out["span_self_s"] = selfS
	}
	full, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", full, 0o644); err != nil {
		return err
	}
	if w.trace {
		if err := w.tracer.writeJSONL(base + ".spans.jsonl"); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}

// layerUnit is the unit a per-layer metric reports in.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_p99"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_rate"),
		strings.HasSuffix(name, "_util"), strings.HasSuffix(name, ".coverage"):
		return "ratio"
	case strings.HasSuffix(name, "_per_warp_instr"):
		return "B"
	}
	return "count"
}
