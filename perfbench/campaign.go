package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"warped/internal/arch"
	"warped/internal/experiments"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
)

// cell is one (machine, benchmark) run: a campaign grid cell, or the
// direct library run of a warpd job.
type cell struct {
	name  string
	cfg   arch.Config
	bench *kernels.Benchmark
	mem   int // device memory for sim.New; 0 is sim.New's default
}

// grid is a campaign: one or more fan-outs, each run to completion
// through one runner.Map before the next starts, as experiments.Engine
// runs one figure after another.
type grid struct {
	workers int // runner pool size
	fanouts [][]cell
}

func (g *grid) cells() []cell {
	var out []cell
	for _, f := range g.fanouts {
		out = append(out, f...)
	}
	return out
}

// product lays cfgs × benchmarks out in experiments.Engine's runGrid
// order: flat index i is machine i/len(bs), benchmark i%len(bs).
func product(machines []string, cfgs []arch.Config, bs []*kernels.Benchmark) []cell {
	var out []cell
	for mi, cfg := range cfgs {
		for _, b := range bs {
			out = append(out, cell{name: machines[mi] + "/" + b.Name, cfg: cfg, bench: b, mem: b.GPUMemBytes()})
		}
	}
	return out
}

// fig9Grid is Figure 9a then Figure 9b, with the machines
// experiments.Engine builds for them.
func fig9Grid() *grid {
	bs := kernels.All()
	mk := func(cluster int, m arch.MappingPolicy) arch.Config {
		cfg := arch.PaperConfig()
		cfg.DMR = arch.DMRFull
		cfg.ClusterSize = cluster
		cfg.Mapping = m
		return cfg
	}
	a := product([]string{"9a-c4-linear", "9a-c8-linear", "9a-c4-cross"},
		[]arch.Config{mk(4, arch.MapLinear), mk(8, arch.MapLinear), mk(4, arch.MapClusterRR)}, bs)
	names := []string{"9b-base"}
	cfgs := []arch.Config{arch.PaperConfig()}
	for _, q := range experiments.Fig9bSizes {
		cfg := arch.WarpedDMRConfig()
		cfg.ReplayQSize = q
		cfgs = append(cfgs, cfg)
		names = append(names, fmt.Sprintf("9b-q%d", q))
	}
	return &grid{workers: campaignWorkers, fanouts: [][]cell{a, product(names, cfgs, bs)}}
}

// denseKernels are the kernels whose SMs issue on 27-63% of
// SM-cycles, so the execute stage and memory model, not idle ticking,
// carry the host time.
var denseKernels = []string{"Laplace", "MatrixMul", "CUFFT", "SCAN", "Reduce", "Transpose", "Histogram"}

// benchmarkByName finds a paper or extra benchmark, as warpd does.
func benchmarkByName(name string) (*kernels.Benchmark, error) {
	if b, err := kernels.ByName(name); err == nil {
		return b, nil
	}
	return kernels.ExtraByName(name)
}

// denseGrid runs the issue-dense kernels on the paper machine with
// DMR off and caches on.
func denseGrid() (*grid, error) {
	var bs []*kernels.Benchmark
	for _, n := range denseKernels {
		b, err := benchmarkByName(n)
		if err != nil {
			return nil, err
		}
		bs = append(bs, b)
	}
	return &grid{workers: campaignWorkers, fanouts: [][]cell{product([]string{"base"}, []arch.Config{arch.PaperConfig()}, bs)}}, nil
}

// cellResult is one executed cell.
type cellResult struct {
	st         *stats.Stats
	start, end time.Time
	busy       [numCellLayers]time.Duration
	diverge    int64 // simt.diverge_events_total; traced runs only
	err        error
}

// The layers a cell calls into, in call order.
const (
	layerNew = iota
	layerBuild
	layerLaunch
	layerHost
	layerCheck
	numCellLayers
)

var cellLayerSpan = [numCellLayers]string{"sim.New", "kernels.Build", "sim.LaunchContext", "kernels.Host", "kernels.Check"}

// runCell runs one cell. Untraced, it takes the program's own path,
// the one experiments.Engine takes for every grid cell: sim.New with
// the cell's device memory, then kernels.ExecuteContext. Traced, it
// makes the same public calls ExecuteContext makes, one by one, and
// times each: sim.New, Benchmark.Build, one GPU.LaunchContext per step
// (with the step's host callback), then the host check. A traced cell
// gets a metrics registry of its own: one shared by both workers would
// add cache-line contention on its counters that the untraced program
// never has.
func runCell(ctx context.Context, tr *tracer, parent int64, c cell) (r cellResult) {
	if tr == nil {
		return execCell(ctx, c)
	}
	id, start := tr.begin("runner.task", parent, c.name)
	r.start = start
	opts := sim.LaunchOpts{Metrics: metrics.New()}
	defer func() {
		r.end = time.Now()
		r.diverge = opts.Metrics.Counter("simt.diverge_events_total").Value()
		tr.end(id)
	}()
	timed := func(layer int, fn func() error) error {
		sid, t0 := tr.begin(cellLayerSpan[layer], id, c.name)
		err := fn()
		r.busy[layer] += time.Since(t0)
		tr.end(sid)
		return err
	}
	var g *sim.GPU
	if r.err = timed(layerNew, func() (err error) {
		g, err = sim.New(c.cfg, c.mem)
		return err
	}); r.err != nil {
		return r
	}
	var run *kernels.Run
	if r.err = timed(layerBuild, func() (err error) {
		run, err = c.bench.Build(g)
		return err
	}); r.err != nil {
		r.err = fmt.Errorf("%s: build: %w", c.name, r.err)
		return r
	}
	total := &stats.Stats{}
	for i, step := range run.Steps {
		var st *stats.Stats
		if r.err = timed(layerLaunch, func() (err error) {
			st, err = g.LaunchContext(ctx, step.Kernel, opts)
			return err
		}); r.err != nil {
			r.err = fmt.Errorf("%s: launch %d: %w", c.name, i, r.err)
			return r
		}
		total.MergeSerial(st)
		if step.Host != nil {
			if r.err = timed(layerHost, func() error { return step.Host(g) }); r.err != nil {
				r.err = fmt.Errorf("%s: host step %d: %w", c.name, i, r.err)
				return r
			}
		}
	}
	if run.Check != nil {
		if r.err = timed(layerCheck, func() error { return run.Check(g) }); r.err != nil {
			r.err = fmt.Errorf("%s: validation: %w", c.name, r.err)
			return r
		}
	}
	r.st = total
	return r
}

// execCell is an untraced cell: sim.New and kernels.ExecuteContext,
// as experiments.Engine runs a grid cell.
func execCell(ctx context.Context, c cell) (r cellResult) {
	r.start = time.Now()
	defer func() { r.end = time.Now() }()
	g, err := sim.New(c.cfg, c.mem)
	if err == nil {
		r.st, err = kernels.ExecuteContext(ctx, g, c.bench, sim.LaunchOpts{})
	}
	if err != nil {
		r.st, r.err = nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return r
}

// fanoutTiming is one runner.Map's wall interval and its tasks.
type fanoutTiming struct {
	start, end time.Time
	tasks      [][2]time.Time
}

// passResult is one pass over a grid.
type passResult struct {
	wall    time.Duration
	cells   []cellResult // grid order
	fanouts []fanoutTiming
}

// runPass runs every fan-out of g in order on the worker pool.
func runPass(ctx context.Context, tr *tracer, g *grid) passResult {
	pid, start := tr.begin("pass", 0, "")
	var pr passResult
	for _, cells := range g.fanouts {
		fid, fstart := tr.begin("runner.Map", pid, "")
		res, _ := runner.Map(ctx, runner.Options{Workers: g.workers}, len(cells),
			func(ctx context.Context, i int) (cellResult, error) {
				return runCell(ctx, tr, fid, cells[i]), nil
			})
		ft := fanoutTiming{start: fstart, end: time.Now()}
		tr.end(fid)
		for _, r := range res {
			ft.tasks = append(ft.tasks, [2]time.Time{r.start, r.end})
		}
		pr.cells = append(pr.cells, res...)
		pr.fanouts = append(pr.fanouts, ft)
	}
	pr.wall = time.Since(start)
	tr.end(pid)
	return pr
}

// poolUse returns Σ task busy ÷ (workers × Σ fan-out wall), and the
// summed tail: per fan-out, the time from the first worker going idle
// for good to the fan-out's end. A worker goes idle for good at the
// first task end after the last task start, since from then on no task
// is left to hand it.
func poolUse(fanouts []fanoutTiming, workers int) (busyFrac float64, tail time.Duration) {
	var busy, wall time.Duration
	for _, f := range fanouts {
		wall += f.end.Sub(f.start)
		var lastStart time.Time
		for _, t := range f.tasks {
			busy += t[1].Sub(t[0])
			if t[0].After(lastStart) {
				lastStart = t[0]
			}
		}
		firstIdle := f.end
		for _, t := range f.tasks {
			if t[1].After(lastStart) && t[1].Before(firstIdle) {
				firstIdle = t[1]
			}
		}
		tail += f.end.Sub(firstIdle)
	}
	if wall > 0 && workers > 0 {
		busyFrac = float64(busy) / (float64(workers) * float64(wall))
	}
	return busyFrac, tail
}

// digest fingerprints every field of a cell's statistics, unexported
// ones included.
func digest(st *stats.Stats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *st)))
	return hex.EncodeToString(sum[:12])
}

//go:embed digests.json
var pinnedJSON []byte

// pinned maps workload → cell name → digest of the cell's stats at the
// commit that defined the benchmark. The simulator is deterministic, so
// any change to a digest is a change to simulated behaviour.
func pinned() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// checkPass compares each cell's digest with the pinned one and
// returns one message per failed or mismatching cell.
func checkPass(g *grid, pr passResult, want map[string]string) []string {
	var bad []string
	for i, c := range g.cells() {
		r := pr.cells[i]
		switch {
		case r.err != nil:
			bad = append(bad, r.err.Error())
		case want[c.name] != digest(r.st):
			bad = append(bad, fmt.Sprintf("%s: stats digest %s, pinned %s", c.name, digest(r.st), want[c.name]))
		}
	}
	return bad
}

// passOK reports whether every cell of a pass produced statistics.
func passOK(pr passResult) bool {
	for _, r := range pr.cells {
		if r.st == nil {
			return false
		}
	}
	return true
}

// fig9Tables renders Figure 9a and 9b from a pass's cells the way
// experiments.Engine renders them from its own runs.
func fig9Tables(pr passResult) (string, string) {
	names := kernels.Names()
	nb := len(names)
	st := func(i int) *stats.Stats { return pr.cells[i].st }
	a := &experiments.Fig9aResult{Names: names}
	for bi := range names {
		a.Cov4 = append(a.Cov4, st(bi).Coverage())
		a.Cov8 = append(a.Cov8, st(nb+bi).Coverage())
		a.CovCross = append(a.CovCross, st(2*nb+bi).Coverage())
	}
	off := 3 * nb
	b := &experiments.Fig9bResult{Names: names}
	for bi := range names {
		row := make([]float64, len(experiments.Fig9bSizes))
		for si := range experiments.Fig9bSizes {
			row[si] = float64(st(off+(si+1)*nb+bi).Cycles) / float64(st(off+bi).Cycles)
		}
		b.Normalized = append(b.Normalized, row)
	}
	return a.Table().String(), b.Table().String()
}

// engineTables runs Figure 9a and 9b through experiments.Engine and
// returns the rendered tables and the engine's wall time.
func engineTables(ctx context.Context) (string, string, time.Duration, error) {
	start := time.Now()
	e := &experiments.Engine{Workers: campaignWorkers}
	a, err := e.Fig9a(ctx)
	if err != nil {
		return "", "", 0, err
	}
	b, err := e.Fig9b(ctx)
	if err != nil {
		return "", "", 0, err
	}
	return a.Table().String(), b.Table().String(), time.Since(start), nil
}

// simCounts are the deterministic per-pass sums the per-layer metrics
// are derived from.
type simCounts struct {
	cycles, smSlots, idleSlots, warpInstrs, threadInstrs        int64
	replayEnq, coexec, idleDrains, stalls, verified, eligible   int64
	global, shared, bankConflicts, l1Hit, l1Miss, l2Hit, l2Miss int64
	diverge                                                     int64
}

func countPass(g *grid, pr passResult) simCounts {
	var s simCounts
	for i, c := range g.cells() {
		st := pr.cells[i].st
		if st == nil {
			continue
		}
		s.cycles += st.Cycles
		s.smSlots += int64(c.cfg.NumSMs) * st.Cycles
		s.idleSlots += st.IdleIssueSlots
		s.warpInstrs += st.WarpInstrs
		s.threadInstrs += st.ThreadInstrs
		s.replayEnq += st.ReplayEnq
		s.coexec += st.ReplayCoexec
		s.idleDrains += st.ReplayIdleDrain
		s.stalls += st.StallReplayQFull + st.StallRAWUnverif
		s.verified += st.VerifiedIntra + st.VerifiedInter
		s.eligible += st.EligibleTI
		s.global += st.GlobalAccesses
		s.shared += st.SharedAccesses
		s.bankConflicts += st.RegBankConflicts
		s.l1Hit += st.L1Hits
		s.l1Miss += st.L1Misses
		s.l2Hit += st.L2Hits
		s.l2Miss += st.L2Misses
		s.diverge += pr.cells[i].diverge
	}
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// warmUp runs one cell per distinct benchmark of g on g's first
// machine: code pages fault in and the heap reaches its working size
// before anything is timed.
func warmUp(ctx context.Context, g *grid) error {
	first := g.fanouts[0][0].cfg
	seen := map[string]bool{}
	var cells []cell
	for _, c := range g.cells() {
		if !seen[c.bench.Name] {
			seen[c.bench.Name] = true
			cells = append(cells, cell{name: "warmup/" + c.bench.Name, cfg: first, bench: c.bench, mem: c.mem})
		}
	}
	return runner.Each(ctx, runner.Options{Workers: g.workers}, len(cells), func(ctx context.Context, i int) error {
		return runCell(ctx, nil, 0, cells[i]).err
	})
}

// pinDigests runs one pass of each campaign workload and writes their
// digests to path, for the rare change that alters simulated behaviour
// on purpose.
func pinDigests(ctx context.Context, path string) error {
	dense, err := denseGrid()
	if err != nil {
		return err
	}
	out := map[string]map[string]string{}
	for name, g := range map[string]*grid{"fig9": fig9Grid(), "dense-nodmr": dense} {
		pr := runPass(ctx, nil, g)
		out[name] = map[string]string{}
		for i, c := range g.cells() {
			if pr.cells[i].err != nil {
				return pr.cells[i].err
			}
			out[name][c.name] = digest(pr.cells[i].st)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// campaign runs a sim workload: set-up, then passes until the window
// closes. With trace on, the first half of the window runs untraced
// and the second half traced, so the trace's overhead is measured in
// the same process.
func campaign(ctx context.Context, w *workloadRun, g *grid, wantTables bool) error {
	want, err := pinned()
	if err != nil {
		return err
	}
	digests := want[w.name]
	if len(digests) != len(g.cells()) {
		return fmt.Errorf("digests.json pins %d cells for %s, grid has %d", len(digests), w.name, len(g.cells()))
	}
	if err := w.setup(func() error { return warmUp(ctx, g) }); err != nil {
		return err
	}

	// Passes run until the window closes and, with trace on, until at
	// least one untraced and one traced pass have run; tracing starts
	// at the first pass that begins after half the window.
	var plain, traced []passResult
	var tr *tracer
	var cpu *cpuWindow
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if elapsed >= w.window && len(plain) > 0 && (!w.trace || len(traced) > 0) {
			break
		}
		if w.trace && tr == nil && len(plain) > 0 && elapsed >= w.window/2 {
			tr = w.tracer
			if cpu, err = startCPUWindow(); err != nil {
				return err
			}
		}
		pr := runPass(ctx, tr, g)
		if tr != nil {
			traced = append(traced, pr)
		} else {
			plain = append(plain, pr)
		}
		for _, msg := range checkPass(g, pr, digests) {
			w.fail(msg)
		}
		w.attempted += len(pr.cells)
	}
	w.rssPeak()

	if wantTables {
		a, b, engWall, err := engineTables(ctx)
		if err != nil {
			return err
		}
		w.info("engine_campaign_s", engWall.Seconds(), "s", 1)
		w.attempted++
		for _, pr := range append(plain, traced...) {
			if !passOK(pr) {
				continue // its failed cells are already counted
			}
			ga, gb := fig9Tables(pr)
			if ga != a || gb != b {
				w.fail("Figure 9 tables rendered from the benchmark's cells differ from experiments.Engine's")
				break
			}
		}
	}

	// End-to-end metrics come from the untraced passes only. Cell
	// latencies are summarised per pass and reported as medians over
	// passes, like the pass wall time: one slow stretch of a noisy
	// machine then moves one pass, not the run's tail.
	var walls, nsPerWI, cellsPerS, p50, p99, cellMS []float64
	for _, pr := range plain {
		c := countPass(g, pr)
		walls = append(walls, pr.wall.Seconds())
		nsPerWI = append(nsPerWI, float64(pr.wall.Nanoseconds())/float64(max(c.warpInstrs, 1)))
		cellsPerS = append(cellsPerS, float64(len(pr.cells))/pr.wall.Seconds())
		var pass []float64
		for _, r := range pr.cells {
			pass = append(pass, ms(r.end.Sub(r.start)))
		}
		p50 = append(p50, median(pass))
		p99 = append(p99, quantile(pass, 0.99))
		cellMS = append(cellMS, pass...)
	}
	w.info("campaign_s", median(walls), "s", len(walls))
	w.e2e("ns_per_warp_instr", median(nsPerWI), "ns", len(nsPerWI))
	w.e2e("jobs_per_s", median(cellsPerS), "jobs/s", len(cellsPerS))
	w.e2e("latency_p50_ms", median(p50), "ms", len(p50))
	w.e2e("latency_p99_ms", median(p99), "ms", len(p99))
	w.e2eTail("cell_latency", cellMS)

	if !w.trace {
		return nil
	}
	prof, err := cpu.stop()
	if err != nil {
		return err
	}
	w.layerFracs(prof)
	var tnsPerWI []float64
	var wi int64
	for _, pr := range traced {
		c := countPass(g, pr)
		wi += c.warpInstrs
		tnsPerWI = append(tnsPerWI, float64(pr.wall.Nanoseconds())/float64(max(c.warpInstrs, 1)))
	}
	n := len(traced)
	c := countPass(g, traced[0]) // simulated counts are identical on every pass
	w.layer("trace.overhead_frac", median(tnsPerWI)/median(nsPerWI)-1, n)
	w.poolLayers(traced, g.workers)
	w.simLayers(c)
	w.layer("runtime.alloc_bytes_per_warp_instr", float64(prof.allocBytes)/float64(max(wi, 1)), n)
	w.layer("runtime.gc_cpu_frac", prof.gcFrac, 1)

	// Store and assembler timings: the cells' statistics as store
	// payloads, and the bundled kernel sources.
	var payloads []replayed
	for _, r := range traced[0].cells {
		data, err := json.Marshal(r.st)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		payloads = append(payloads, replayed{key: hex.EncodeToString(sum[:]), payload: data})
	}
	var sources []string
	for _, src := range kernels.Sources() {
		sources = append(sources, src.Src)
	}
	return w.replay(filepath.Join(outDir, fmt.Sprintf("replay-%d", os.Getpid())), payloads, sources, nil)
}

// simLayers records the simulated counts of one pass: the same on
// every pass of a deterministic grid.
func (w *workloadRun) simLayers(c simCounts) {
	w.layer("sim.idle_slot_frac", ratio(c.idleSlots, c.smSlots), 1)
	w.layer("sim.cycles", float64(c.cycles), 1)
	w.layer("sim.warp_instrs", float64(c.warpInstrs), 1)
	w.layer("core.replayq_enqueued", float64(c.replayEnq), 1)
	w.layer("core.coexec_replays", float64(c.coexec), 1)
	w.layer("core.idle_drains", float64(c.idleDrains), 1)
	w.layer("core.stall_cycles", float64(c.stalls), 1)
	w.layer("core.coverage", ratio(c.verified, c.eligible), 1)
	w.layer("exec.simd_util", ratio(c.threadInstrs, 32*c.warpInstrs), 1)
	w.layer("exec.divergent_branches", float64(c.diverge), 1)
	w.layer("mem.global_accesses", float64(c.global), 1)
	w.layer("mem.shared_accesses", float64(c.shared), 1)
	w.layer("mem.reg_bank_conflict_cycles", float64(c.bankConflicts), 1)
	w.layer("cache.l1_hit_rate", ratio(c.l1Hit, c.l1Hit+c.l1Miss), 1)
	w.layer("cache.l2_hit_rate", ratio(c.l2Hit, c.l2Hit+c.l2Miss), 1)
}

// poolLayers records the runner, sim and kernels figures of passes:
// each layer's busy time per pass, and how well the pool's workers
// were used.
func (w *workloadRun) poolLayers(passes []passResult, workers int) {
	var busy [numCellLayers]time.Duration
	var busyFrac, tail []float64
	for _, pr := range passes {
		bf, t := poolUse(pr.fanouts, workers)
		busyFrac = append(busyFrac, bf)
		tail = append(tail, t.Seconds())
		for _, r := range pr.cells {
			for l := range busy {
				busy[l] += r.busy[l]
			}
		}
	}
	n := len(passes)
	perPass := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	w.layer("sim.launch_busy_s", perPass(busy[layerLaunch]), n)
	w.layer("sim.new_busy_s", perPass(busy[layerNew]), n)
	w.layer("kernels.build_busy_s", perPass(busy[layerBuild]), n)
	w.layer("kernels.check_busy_s", perPass(busy[layerCheck]), n)
	w.layer("runner.busy_frac", median(busyFrac), n)
	w.layer("runner.tail_s", median(tail), n)
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
