package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warped/client"
	"warped/internal/asm"
	"warped/internal/cluster"
	"warped/internal/kernels"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/service"
	"warped/internal/sim"
	"warped/internal/store"
)

// clientPoll is the benchmark clients' status-poll cadence: a tenth of
// the client's 50 ms default, so ten times the status-poll traffic of a
// default client. The reason is resolution: a fresh job is done after
// one to a few of the coordinator's 25 ms worker polls, so with a 50 ms
// client poll every fresh-job latency reads as a multiple of 50 ms and
// latency_p99_ms moves only when a change crosses a 50 ms step. At
// 5 ms the tier's own wait shows to within 5 ms. client.polls_per_job
// reports the extra traffic.
const clientPoll = 5 * time.Millisecond

// opKind is what one closed-loop operation exercises.
type opKind int

const (
	opHit      opKind = iota // a pre-warmed hot-set spec: read path
	opCold                   // a fresh unique inline kernel: dispatch, assemble+verify, simulate, store.Put
	opCoalesce               // a fresh spec both clients submit at once
)

func (k opKind) String() string { return [...]string{"hit", "cold", "coalesce"}[k] }

// The mix, in percent of operations; the rest are hits. The split is
// an assumption, not a measurement: the repository has no record of
// real warpd traffic, and the mix should be derived from one when it
// has. The numbers are chosen for sample counts. With 28% fresh jobs
// the slowest quarter of all jobs are fresh ones, so latency_p99_ms is
// a fresh-job latency and latency_p50_ms a hit latency, and a 20 s
// window holds several hundred fresh jobs; 8% coalesced pairs give
// about a hundred coalesced submissions a window; the 72% hits give a
// few thousand hit latencies a window.
const (
	coldPct     = 20
	coalescePct = 8
)

// hotSetSize is the number of bundled-benchmark specs hits go to, drawn
// by the seed from the 16 prefilled ones, so the seed changes which
// specs are read while set-up stays the same work. Like the mix, it is
// chosen, not measured.
const hotSetSize = 6

// hotPool are the bundled benchmarks the hot set is drawn from: the
// ones that simulate in tens of milliseconds, so prefill stays short.
var hotPool = []string{"Reduce", "Transpose", "Histogram", "BitonicSort", "Nqueen", "Libor", "Laplace", "VulnMicro"}

// prefillSpecs are every hotPool benchmark on the paper and the
// Warped-DMR machine. Set-up computes all of them, whatever the seed,
// so set-up does the same work on every seed.
func prefillSpecs() []*client.JobSpec {
	var all []*client.JobSpec
	for _, b := range hotPool {
		for _, preset := range []string{"paper", "warped"} {
			all = append(all, &client.JobSpec{Benchmark: b, Config: &client.ConfigSpec{Preset: preset}})
		}
	}
	return all
}

// hotSet draws the seed's hot set from the prefilled specs.
func hotSet(seed int64, prefill []*client.JobSpec) []*client.JobSpec {
	all := append([]*client.JobSpec(nil), prefill...)
	rand.New(rand.NewSource(seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:hotSetSize]
}

// coldSrc is the inline kernel of fresh jobs: a fixed-trip loop whose
// constants make every job a distinct content address while the
// simulated work stays the same size. It is small (256 threads, eight
// iterations) so that the serving tier, not the simulation, carries a
// fresh job's host time.
const coldSrc = `.kernel cold
	mov  r0, %%tid.x
	mov  r1, %%ctaid.x
	mov  r2, %%ntid.x
	imad r3, r1, r2, r0
	ld.param r4, [0]
	shl  r5, r3, 2
	iadd r5, r4, r5
	mov  r6, %d
	mov  r7, 0
LOOP:
	imad r6, r6, %d, r3
	xor  r6, r6, r7
	iadd r7, r7, 1
	setp.lt.s32 p0, r7, 8
	@p0 bra LOOP
	st.global [r5], r6
	exit
`

func coldSpec(seq uint32, mul int32) *client.JobSpec {
	return &client.JobSpec{
		Source: fmt.Sprintf(coldSrc, seq, mul),
		GridX:  4, BlockX: 64,
		Params: []uint32{4096},
		Config: &client.ConfigSpec{Preset: "warped"},
	}
}

// op is one closed-loop operation of one client.
type op struct {
	kind opKind
	seq  int // index in the client's stream
	spec *client.JobSpec
}

// stream is one client's seeded operation sequence within one phase
// of a run. Both clients draw the kind of every operation from the
// same generator, so their coalesce operations line up one for one
// and carry the same spec. A phase starts fresh streams: a window cut
// leaves the two clients at different positions.
type stream struct {
	tag   uint32     // phase<<2 | client
	kinds *rand.Rand // shared sequence: identical in both clients
	own   *rand.Rand // this client's hot-set picks and cold constants
	hot   []*client.JobSpec
	next  int
}

func newStream(seed int64, phase, clientIdx int, hot []*client.JobSpec) *stream {
	return &stream{
		tag:   uint32(phase)<<2 | uint32(clientIdx),
		kinds: rand.New(rand.NewSource(seed*7919 + int64(phase))),
		own:   rand.New(rand.NewSource(seed*1000003 + int64(phase)*101 + int64(clientIdx) + 1)),
		hot:   hot,
	}
}

// Next returns the client's next operation. Cold and coalesce specs
// are unique within a run: their first constant encodes the op's
// position and phase, and cold ones also the client.
func (s *stream) Next() op {
	o := op{seq: s.next}
	s.next++
	k, c := s.kinds.Intn(100), s.kinds.Int31()
	switch {
	case k < coalescePct:
		o.kind = opCoalesce
		o.spec = coldSpec(uint32(o.seq)<<4|s.tag&^3|3, c|1)
	case k < coalescePct+coldPct:
		o.kind = opCold
		o.spec = coldSpec(uint32(o.seq)<<4|s.tag, s.own.Int31()|1)
	default:
		o.kind = opHit
		o.spec = s.hot[s.own.Intn(len(s.hot))]
	}
	return o
}

// rendezvous lets both clients submit a coalesce op at the same time.
type rendezvous struct {
	mu sync.Mutex
	ch map[int]chan struct{}
}

// meet blocks until the other client reaches op seq, or ctx ends.
func (r *rendezvous) meet(ctx context.Context, seq int) error {
	r.mu.Lock()
	ch, ok := r.ch[seq]
	if ok {
		delete(r.ch, seq)
		r.mu.Unlock()
		close(ch)
		return nil
	}
	ch = make(chan struct{})
	r.ch[seq] = ch
	r.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jobRecord is one completed operation.
type jobRecord struct {
	kind                  opKind
	id                    string
	spec                  *client.JobSpec
	start, submitted, end time.Time
	res                   *client.ResultResponse
	err                   error
}

// observer times the serving tier from outside: handler wrappers on
// the coordinator and workers, and round-trip wrappers on the
// coordinator's and the clients' HTTP clients. It records only while
// on, so the untraced half of a traced run pays one atomic load per
// request.
type observer struct {
	on atomic.Bool
	tr *tracer

	mu           sync.Mutex
	handlerMS    map[string][]float64 // tier → handler latencies
	dispatchFrom map[string]time.Time // job ID → coordinator's submit to a worker
	dispatchMS   []float64
	workerPolls  int
	clientPolls  int
}

func newObserver(tr *tracer) *observer {
	return &observer{tr: tr, handlerMS: map[string][]float64{}, dispatchFrom: map[string]time.Time{}}
}

// jobIDFromPath extracts the job ID of /v1/jobs/{id}[/result].
func jobIDFromPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// captureWriter keeps a submit response's body so its job ID can tag
// the span.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.body.Len() < 512 {
		c.body.Write(b)
	}
	return c.ResponseWriter.Write(b)
}

// handler wraps a tier's Handler() with a timing span.
func (o *observer) handler(tier string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !o.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		id := jobIDFromPath(r.URL.Path)
		var cw *captureWriter
		if id == "" && r.Method == http.MethodPost {
			cw = &captureWriter{ResponseWriter: w}
			w = cw
		}
		h.ServeHTTP(w, r)
		end := time.Now()
		if cw != nil {
			var sr client.SubmitResponse
			if json.Unmarshal(cw.body.Bytes(), &sr) == nil {
				id = sr.ID
			}
		}
		o.tr.record(tier+".handler "+r.Method+" "+routeOf(r.URL.Path), 0, id, start, end)
		o.mu.Lock()
		o.handlerMS[tier] = append(o.handlerMS[tier], ms(end.Sub(start)))
		o.mu.Unlock()
	})
}

func routeOf(p string) string {
	switch {
	case strings.HasSuffix(p, "/result"):
		return "result"
	case jobIDFromPath(p) != "":
		return "status"
	case p == "/v1/jobs":
		return "submit"
	}
	return p
}

// roundTripper counts a client's exchanges. For the coordinator's
// client it also times each dispatch: from the submit to a worker to
// the fetch of the job's result from it.
type roundTripper struct {
	o           *observer
	coordinator bool
	base        http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.o.on.Load() {
		return rt.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil || !rt.coordinator {
		if err == nil && req.Method == http.MethodGet && routeOf(req.URL.Path) == "status" {
			rt.o.mu.Lock()
			rt.o.clientPolls++
			rt.o.mu.Unlock()
		}
		return resp, err
	}
	switch route := routeOf(req.URL.Path); {
	case req.Method == http.MethodPost && route == "submit":
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if rerr != nil {
			return resp, nil
		}
		var sr client.SubmitResponse
		if json.Unmarshal(body, &sr) == nil && sr.ID != "" {
			rt.o.mu.Lock()
			rt.o.dispatchFrom[sr.ID] = start
			rt.o.mu.Unlock()
		}
	case route == "status":
		rt.o.mu.Lock()
		rt.o.workerPolls++
		rt.o.mu.Unlock()
	case route == "result":
		id := jobIDFromPath(req.URL.Path)
		end := time.Now()
		rt.o.mu.Lock()
		if t0, ok := rt.o.dispatchFrom[id]; ok {
			delete(rt.o.dispatchFrom, id)
			rt.o.dispatchMS = append(rt.o.dispatchMS, ms(end.Sub(t0)))
			rt.o.tr.record("cluster.dispatch", 0, id, t0, end)
		}
		rt.o.mu.Unlock()
	}
	return resp, nil
}

// serving is the in-process warpd tier: a coordinator over two
// workers, each tier with its own store, all on loopback.
type serving struct {
	root     string
	workers  []*service.Server
	coord    *cluster.Coordinator
	servers  []*http.Server
	served   sync.WaitGroup
	coordURL string
	openS    []float64
}

func (s *serving) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func (s *serving) openStore(name string, reg *metrics.Registry) (*store.Store, error) {
	start := time.Now()
	st, err := store.Open(store.Options{Dir: filepath.Join(s.root, name), Metrics: reg})
	if err != nil {
		return nil, err
	}
	s.openS = append(s.openS, time.Since(start).Seconds())
	return st, nil
}

// startServing brings the tier up under root, wiring the registry the
// way cmd/warpd does, and the observer's wrappers around every handler
// and the coordinator's HTTP client.
func startServing(root string, reg *metrics.Registry, o *observer) (*serving, error) {
	s := &serving{root: root}
	var urls []string
	for i := 0; i < servingWorkers; i++ {
		st, err := s.openStore(fmt.Sprintf("worker%d", i), reg)
		if err != nil {
			return s, err
		}
		w := service.New(service.Options{Workers: 1, Store: st, Metrics: reg})
		s.workers = append(s.workers, w)
		u, err := s.listen(o.handler("service", w.Handler()))
		if err != nil {
			return s, err
		}
		urls = append(urls, u)
	}
	st, err := s.openStore("coordinator", reg)
	if err != nil {
		return s, err
	}
	s.coord = cluster.New(cluster.Options{
		Workers: urls, Store: st, Metrics: reg,
		HTTPClient: &http.Client{Transport: roundTripper{o: o, coordinator: true, base: http.DefaultTransport}},
	})
	s.coordURL, err = s.listen(o.handler("cluster", s.coord.Handler()))
	return s, err
}

// stop drains the coordinator and workers, shuts every listener down,
// waits for the serve loops, and removes the stores.
func (s *serving) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.Drain(ctx))
	}
	for _, w := range s.workers {
		errs = append(errs, w.Drain(ctx))
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	s.served.Wait()
	errs = append(errs, os.RemoveAll(s.root))
	return errors.Join(errs...)
}

func newClient(base string, o *observer) *client.Client {
	c := client.NewWithHTTPClient(base, &http.Client{Timeout: 30 * time.Second,
		Transport: roundTripper{o: o, base: http.DefaultTransport}})
	c.PollInterval = clientPoll
	return c
}

// doOp runs one operation to completion.
func doOp(ctx context.Context, c *client.Client, tr *tracer, o op) jobRecord {
	rec := jobRecord{kind: o.kind, spec: o.spec, start: time.Now()}
	resp, err := c.Submit(ctx, o.spec)
	rec.submitted = time.Now()
	if err != nil {
		rec.err, rec.end = err, rec.submitted
		tr.record("client.Submit", 0, "", rec.start, rec.submitted)
		return rec
	}
	rec.id = resp.ID
	tr.record("client.Submit", 0, resp.ID, rec.start, rec.submitted)
	rec.res, rec.err = c.Wait(ctx, resp.ID)
	rec.end = time.Now()
	tr.record("client.Wait", 0, resp.ID, rec.submitted, rec.end)
	return rec
}

// loop drives the closed loop of all clients until ctx ends.
func loop(ctx context.Context, cs []*client.Client, streams []*stream, tr *tracer) []jobRecord {
	rv := &rendezvous{ch: map[int]chan struct{}{}}
	out := make([][]jobRecord, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ctx.Err() == nil {
				o := streams[i].Next()
				if o.kind == opCoalesce && rv.meet(ctx, o.seq) != nil {
					return
				}
				rec := doOp(ctx, cs[i], tr, o)
				if ctx.Err() != nil { // cut by the window's end: not a completed job
					return
				}
				out[i] = append(out[i], rec)
			}
		}(i)
	}
	wg.Wait()
	var all []jobRecord
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all
}

// referenceCell is the direct library run of a job's canonical spec,
// made the way a warpd worker makes it: sim.New with the spec's config
// and the simulator's default device memory, then the bundled
// benchmark (with its host check) or the assembled, verified inline
// kernel.
func referenceCell(id string, spec *client.JobSpec) (cell, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return cell{}, err
	}
	c := cell{name: id, cfg: canon.Config}
	if canon.Benchmark != "" {
		c.bench, err = benchmarkByName(canon.Benchmark)
		return c, err
	}
	c.bench = &kernels.Benchmark{Name: id, Build: func(*sim.GPU) (*kernels.Run, error) {
		prog, err := asm.AssembleVerified(canon.Source)
		if err != nil {
			return nil, err
		}
		k := &sim.Kernel{Prog: prog, GridX: canon.GridX, GridY: canon.GridY,
			BlockX: canon.BlockX, BlockY: canon.BlockY, SharedBytes: max(canon.SharedBytes, prog.SharedBytes)}
		if len(canon.Params) > 0 {
			k.Params = mem.NewParams(canon.Params...)
		}
		return &kernels.Run{Steps: []kernels.Step{{Kernel: k}}}, nil
	}}
	return c, nil
}

// checkJobs compares every completed job with a direct library run of
// its canonical spec and returns one message per mismatch or failure,
// and the grid and pass of direct runs (one per distinct job).
func checkJobs(ctx context.Context, tr *tracer, recs []jobRecord) ([]string, *grid, passResult, error) {
	var bad []string
	byID := map[string]*client.JobSpec{}
	for _, r := range recs {
		if r.err != nil {
			bad = append(bad, fmt.Sprintf("%s job %s: %v", r.kind, r.id, r.err))
			continue
		}
		byID[r.id] = r.spec
	}
	var cells []cell
	for _, id := range sortedNames(byID) {
		c, err := referenceCell(id, byID[id])
		if err != nil {
			return nil, nil, passResult{}, fmt.Errorf("job %s: %w", id, err)
		}
		cells = append(cells, c)
	}
	g := &grid{workers: servingWorkers, fanouts: [][]cell{cells}}
	pr := runPass(ctx, tr, g)
	want := map[string][]byte{}
	for i, c := range cells {
		r := pr.cells[i]
		if r.err != nil {
			return nil, nil, pr, fmt.Errorf("direct run of job %s: %w", c.name, r.err)
		}
		data, err := json.Marshal(r.st)
		if err != nil {
			return nil, nil, pr, err
		}
		want[c.name] = data
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		got, err := json.Marshal(r.res.Stats)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%s job %s: %v", r.kind, r.id, err))
		case !bytes.Equal(got, want[r.id]):
			bad = append(bad, fmt.Sprintf("%s job %s: stats differ from a direct library run", r.kind, r.id))
		case r.res.Attempts != 1 || r.res.Detections != 0 || r.res.Recovered:
			bad = append(bad, fmt.Sprintf("%s job %s: attempts=%d detections=%d recovered=%v on a fault-free job",
				r.kind, r.id, r.res.Attempts, r.res.Detections, r.res.Recovered))
		}
	}
	return bad, g, pr, nil
}

// replayInputs are the result payloads, under their store keys, and
// the inline sources of the run's fresh jobs.
func replayInputs(recs []jobRecord) ([]replayed, []string, error) {
	var payloads []replayed
	var sources []string
	seen := map[string]bool{}
	for _, r := range recs {
		if r.err != nil || seen[r.id] || r.kind == opHit {
			continue
		}
		seen[r.id] = true
		hash, _, err := service.SpecKey(r.spec)
		if err != nil {
			return nil, nil, err
		}
		payload, err := json.Marshal(service.JobResult{Stats: r.res.Stats, Attempts: r.res.Attempts,
			Recovered: r.res.Recovered, Detections: r.res.Detections})
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, replayed{key: hash, payload: payload})
		sources = append(sources, r.spec.Source)
	}
	return payloads, sources, nil
}

// window is the measurement of one stretch of the closed loop.
type window struct {
	recs []jobRecord
	wall time.Duration
}

// jobsPerS counts the window's jobs that completed without error.
func (w window) jobsPerS() float64 {
	n := 0
	for _, r := range w.recs {
		if r.err == nil {
			n++
		}
	}
	return float64(n) / w.wall.Seconds()
}

// warpdMix runs the serving workload: set up the tier and prefill the
// hot set (once untimed, then setupReps times, keeping the last), run the closed loop for
// the window (untraced, then traced for the second half when tracing),
// check every result, then tear the tier down.
func warpdMix(ctx context.Context, w *workloadRun) (err error) {
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer func() { err = errors.Join(err, os.RemoveAll(tmp)) }()
	reg := metrics.New()
	o := newObserver(w.tracer)
	prefill := prefillSpecs()
	hot := hotSet(w.seed, prefill)

	var s *serving
	rep := 0
	var openS []float64
	err = w.setup(func() error {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		rep++
		var err error
		s, err = startServing(filepath.Join(tmp, fmt.Sprint(rep)), reg, o)
		if err != nil {
			return err
		}
		openS = append(openS, s.openS...)
		c := newClient(s.coordURL, o)
		return runner.Each(ctx, runner.Options{Workers: clients}, len(prefill), func(ctx context.Context, i int) error {
			resp, err := c.Submit(ctx, prefill[i])
			if err != nil {
				return err
			}
			_, err = c.Wait(ctx, resp.ID)
			return err
		})
	})
	if s != nil {
		defer func() { err = errors.Join(err, s.stop()) }()
	}
	if err != nil {
		return err
	}

	cs := make([]*client.Client, clients)
	for i := range cs {
		cs[i] = newClient(s.coordURL, o)
	}
	phase := 0
	run := func(d time.Duration, tr *tracer) window {
		streams := make([]*stream, clients)
		for i := range streams {
			streams[i] = newStream(w.seed, phase, i, hot)
		}
		phase++
		wctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		start := time.Now()
		recs := loop(wctx, cs, streams, tr)
		return window{recs: recs, wall: time.Since(start)}
	}

	plainDur := w.window
	if w.trace {
		plainDur = w.window / 2
	}
	plain := run(plainDur, nil)
	w.rssPeak()
	var traced window
	var prof *profileWindow
	var before, after metrics.Snapshot
	if w.trace {
		cpu, err := startCPUWindow()
		if err != nil {
			return err
		}
		before = reg.Snapshot()
		o.on.Store(true)
		traced = run(w.window-plainDur, w.tracer)
		o.on.Store(false)
		after = reg.Snapshot()
		if prof, err = cpu.stop(); err != nil {
			return err
		}
	}

	all := append(append([]jobRecord(nil), plain.recs...), traced.recs...)
	w.attempted += len(all)
	bad, refGrid, refs, err := checkJobs(ctx, w.tracer, all)
	if err != nil {
		return err
	}
	for _, msg := range bad {
		w.fail(msg)
	}

	var lat, hit, cold []float64
	var simWI int64
	executed := map[string]bool{}
	for _, r := range plain.recs {
		if r.err != nil {
			continue
		}
		d := ms(r.end.Sub(r.start))
		lat = append(lat, d)
		if r.kind == opHit {
			hit = append(hit, d)
		} else {
			cold = append(cold, d)
			if !executed[r.id] {
				executed[r.id] = true
				simWI += r.res.Stats.WarpInstrs
			}
		}
	}
	w.e2e("jobs_per_s", plain.jobsPerS(), "jobs/s", len(plain.recs))
	w.e2e("latency_p50_ms", median(lat), "ms", len(lat))
	w.e2e("latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	w.e2eTail("latency", lat)
	w.e2e("ns_per_warp_instr", float64(plain.wall.Nanoseconds())/float64(max(simWI, 1)), "ns", len(executed))
	w.info("hit_p50_ms", median(hit), "ms", len(hit))
	w.info("cold_p50_ms", median(cold), "ms", len(cold))
	w.info("cold_jobs_per_s", float64(len(cold))/plain.wall.Seconds(), "jobs/s", len(cold))

	if !w.trace {
		return nil
	}
	w.layerFracs(prof)
	w.layer("trace.overhead_frac", plain.jobsPerS()/traced.jobsPerS()-1, len(traced.recs))
	w.warpdLayers(traced, o, before, after, prof)
	// The sim, kernels and runner figures come from the direct library
	// runs of the run's distinct jobs, which the correctness check makes.
	w.poolLayers([]passResult{refs}, refGrid.workers)
	w.simLayers(countPass(refGrid, refs))
	payloads, sources, err := replayInputs(all)
	if err != nil {
		return err
	}
	return w.replay(filepath.Join(tmp, "replay"), payloads, sources, openS)
}

// warpdLayers derives the client, cluster, service and store metrics
// of the traced window.
func (w *workloadRun) warpdLayers(t window, o *observer, before, after metrics.Snapshot, prof *profileWindow) {
	var submit, wait []float64
	var simWI int64
	executed := map[string]bool{}
	for _, r := range t.recs {
		submit = append(submit, ms(r.submitted.Sub(r.start)))
		wait = append(wait, ms(r.end.Sub(r.submitted)))
		if r.err == nil && r.kind != opHit && !executed[r.id] {
			executed[r.id] = true
			simWI += r.res.Stats.WarpInstrs
		}
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(t.recs)
	w.info("client.submit_ms_p50", median(submit), "ms", n)
	w.info("client.wait_ms_p50", median(wait), "ms", n)
	w.layer("client.polls_per_job", ratio(int64(o.clientPolls), int64(n)), n)
	w.info("cluster.handler_ms_p50", median(o.handlerMS["cluster"]), "ms", len(o.handlerMS["cluster"]))
	w.info("cluster.dispatch_ms_p50", median(o.dispatchMS), "ms", len(o.dispatchMS))
	w.info("cluster.dispatch_ms_p99", quantile(o.dispatchMS, 0.99), "ms", len(o.dispatchMS))
	w.layer("cluster.worker_polls_per_dispatch", ratio(int64(o.workerPolls), int64(len(o.dispatchMS))), len(o.dispatchMS))
	w.layer("cluster.dispatches", delta("cluster.dispatches_total"), 1)
	w.layer("cluster.coalesced", delta("cluster.coalesced_total"), 1)
	w.layer("cluster.cache_hits", delta("cluster.cache_hits_total"), 1)
	w.layer("cluster.store_hits", delta("cluster.store_hits_total"), 1)
	w.layer("cluster.redispatches", delta("cluster.redispatches_total"), 1)
	w.info("service.handler_ms_p50", median(o.handlerMS["service"]), "ms", len(o.handlerMS["service"]))
	w.info("service.job_ms_p50", jobLatencyP50(before, after), "ms", int(delta("service.jobs_executed_total")))
	w.layer("service.cache_hits", delta("service.cache_hits_total"), 1)
	w.layer("service.cache_misses", delta("service.cache_misses_total"), 1)
	w.layer("service.coalesced", delta("service.cache_coalesced_total"), 1)
	w.layer("service.executed", delta("service.jobs_executed_total"), 1)
	w.layer("service.rejected", delta("service.jobs_rejected_total"), 1)
	w.layer("store.writes", delta("store.writes_total"), 1)
	w.layer("store.hits", delta("store.hits_total"), 1)
	w.layer("store.misses", delta("store.misses_total"), 1)
	w.layer("runtime.alloc_bytes_per_warp_instr", float64(prof.allocBytes)/float64(max(simWI, 1)), len(executed))
	w.layer("runtime.gc_cpu_frac", prof.gcFrac, 1)
}

// jobLatencyP50 estimates the median of service.job_latency_ms over
// the observations between two snapshots.
func jobLatencyP50(before, after metrics.Snapshot) float64 {
	a, b := after.Histograms["service.job_latency_ms"], before.Histograms["service.job_latency_ms"]
	counts := make([]int64, len(a.Buckets))
	for i := range a.Buckets {
		counts[i] = a.Buckets[i].Count
		if i < len(b.Buckets) {
			counts[i] -= b.Buckets[i].Count
		}
	}
	return histQuantile(metrics.LatencyMSBounds, counts, 0.5)
}
