package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warped"
	"warped/client"
	"warped/internal/cluster"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/store"
)

// tinySrc is a near-instant inline kernel for coalescing/failover
// tests.
const tinySrc = `
.kernel tiny
	mov  r0, %tid.x
	iadd r1, r0, 1
	exit
`

// newWorker spins up one real warpd worker over httptest.
func newWorker(t *testing.T, opt service.Options) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	return newHeldWorker(t, opt, nil)
}

// newHeldWorker is newWorker whose job status and result reads wait
// until release is closed (never, when release is nil): a coordinator
// dispatching to it cannot see a job finish before then, however fast
// the job runs.
func newHeldWorker(t *testing.T, opt service.Options, release <-chan struct{}) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	if opt.Metrics == nil {
		opt.Metrics = metrics.New()
	}
	srv := service.New(opt)
	h := srv.Handler()
	if release != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	return ts, opt.Metrics
}

// newCoordinator wires a coordinator over the given worker URLs and
// serves it over httptest, returning a client pointed at it. Drain is
// registered before the server Close so in-flight dispatches are
// cancelled while the test servers still accept connections.
func newCoordinator(t *testing.T, opts cluster.Options) (*cluster.Coordinator, *client.Client) {
	t.Helper()
	co := cluster.New(opts)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = co.Drain(ctx)
	})
	c := client.New(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	return co, c
}

// TestClusterStatsMatchDirectRun is the acceptance check: a benchmark
// job submitted through a 2-worker coordinator answers byte-identical
// stats to a direct library run — sharding, dispatch, and the durable
// store must never change the science.
func TestClusterStatsMatchDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full MatrixMul run")
	}
	w1, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	w2, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL, w2.URL},
		Store:         openStore(t, t.TempDir()),
		ProbeInterval: time.Hour, // keep probes out of this test
	})
	ctx := context.Background()

	resp, err := c.Submit(ctx, &client.JobSpec{Benchmark: "MatrixMul"})
	if err != nil {
		t.Fatalf("Submit through coordinator: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}

	direct, err := (&warped.Runner{}).Run(ctx, "MatrixMul")
	if err != nil {
		t.Fatalf("direct Run: %v", err)
	}
	got, _ := json.Marshal(res.Stats)
	want, _ := json.Marshal(direct.Stats)
	if string(got) != string(want) {
		t.Errorf("cluster stats differ from direct run:\ncluster: %s\ndirect:  %s", got, want)
	}
	if res.Attempts != direct.Attempts || res.Detections != direct.Detections {
		t.Errorf("bookkeeping differs: cluster {%d %d}, direct {%d %d}",
			res.Attempts, res.Detections, direct.Attempts, direct.Detections)
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterCoalescing: N concurrent identical submissions from
// different callers produce exactly one dispatch to the pool and one
// worker-side execution. The workers hold the coordinator's status
// polls until every submission has been answered, so the job is still
// in flight when the last one arrives, however loaded the machine.
func TestClusterCoalescing(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	w1, reg1 := newHeldWorker(t, service.Options{Workers: 2, QueueDepth: 16}, release)
	w2, reg2 := newHeldWorker(t, service.Options{Workers: 2, QueueDepth: 16}, release)
	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL, w2.URL},
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	t.Cleanup(open) // runs before the servers close, so no poll stays held
	ctx := context.Background()

	spec := &client.JobSpec{Source: tinySrc}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	open()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got ID %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	if _, err := c.Wait(ctx, ids[0]); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["cluster.dispatches_total"]; got != 1 {
		t.Errorf("cluster.dispatches_total = %d after %d identical submissions, want 1", got, n)
	}
	if got := snap.Counters["cluster.coalesced_total"]; got != n-1 {
		t.Errorf("cluster.coalesced_total = %d, want %d", got, n-1)
	}
	executed := reg1.Snapshot().Counters["service.jobs_executed_total"] +
		reg2.Snapshot().Counters["service.jobs_executed_total"]
	if executed != 1 {
		t.Errorf("workers executed the job %d times, want exactly 1", executed)
	}

	// A later identical submission is a coordinator memory hit — no new
	// dispatch, answered done immediately.
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !resp.Cached || resp.Status != "done" {
		t.Errorf("resubmit = %+v, want cached done", resp)
	}
	if got := reg.Snapshot().Counters["cluster.dispatches_total"]; got != 1 {
		t.Errorf("dispatches_total = %d after resubmit, want still 1", got)
	}
}

// primaryFor reproduces the coordinator's placement for a spec over a
// worker pool, so tests can make the primary the faulty one and pin
// failover behavior deterministically.
func primaryFor(t *testing.T, spec *client.JobSpec, workers ...string) string {
	t.Helper()
	hash, _, err := service.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := cluster.NewRing(0)
	for _, w := range workers {
		r.Add(w)
	}
	primary, ok := r.Pick(hash)
	if !ok {
		t.Fatal("empty test ring")
	}
	return primary
}

// TestClusterRedispatchOnDrainingWorker: the job's primary worker is
// draining (503s every submission); the coordinator re-dispatches to
// the next ring node and the caller sees a clean result, no error.
func TestClusterRedispatchOnDrainingWorker(t *testing.T) {
	good, goodReg := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "5")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "service: draining"})
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(draining.Close)

	spec := &client.JobSpec{Source: tinySrc}
	if primaryFor(t, spec, good.URL, draining.URL) != draining.URL {
		// Placement is content-addressed: perturb the spec until it
		// lands on the draining worker so the test always exercises the
		// failover path.
		for i := 0; i < 1000; i++ {
			spec.Params = []uint32{uint32(i)}
			if primaryFor(t, spec, good.URL, draining.URL) == draining.URL {
				break
			}
		}
	}
	if primaryFor(t, spec, good.URL, draining.URL) != draining.URL {
		t.Fatal("could not steer a spec onto the draining worker")
	}

	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{good.URL, draining.URL},
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	ctx := context.Background()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait through a draining primary: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("nil stats through failover")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.redispatches_total"]; got != 1 {
		t.Errorf("redispatches_total = %d, want 1", got)
	}
	if got := goodReg.Snapshot().Counters["service.jobs_executed_total"]; got != 1 {
		t.Errorf("good worker executed %d jobs, want 1", got)
	}
}

// TestClusterWorkerDiesMidJob: the primary accepts the job then its
// connections start dying (the worker was killed). The coordinator
// ejects it, re-dispatches to the successor, and the caller still gets
// the correct result.
func TestClusterWorkerDiesMidJob(t *testing.T) {
	good, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})

	// The dying worker: admits the submission with the correct content
	// address, then kills the connection of every status poll — exactly
	// what a caller sees when a worker process is SIGKILLed mid-job.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			data, _ := io.ReadAll(r.Body)
			spec, err := service.ParseSpec(data)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_, id, err := service.SpecKey(spec)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(map[string]string{"id": id, "status": "queued"})
			return
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dying.Close)

	spec := &client.JobSpec{Source: tinySrc}
	if primaryFor(t, spec, good.URL, dying.URL) != dying.URL {
		for i := 0; i < 1000; i++ {
			spec.Params = []uint32{uint32(i)}
			if primaryFor(t, spec, good.URL, dying.URL) == dying.URL {
				break
			}
		}
	}
	if primaryFor(t, spec, good.URL, dying.URL) != dying.URL {
		t.Fatal("could not steer a spec onto the dying worker")
	}

	reg := metrics.New()
	co, c := newCoordinator(t, cluster.Options{
		Workers:       []string{good.URL, dying.URL},
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	ctx := context.Background()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait through a dying primary: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("nil stats through failover")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.redispatches_total"]; got != 1 {
		t.Errorf("redispatches_total = %d, want 1", got)
	}
	if got := snap.Counters["cluster.worker_ejections_total"]; got != 1 {
		t.Errorf("worker_ejections_total = %d, want 1 (dead worker ejected synchronously)", got)
	}
	if co.Healthy(dying.URL) {
		t.Error("dying worker still on the ring after a dead-connection dispatch")
	}
}

// TestClusterLatencyHedge: a primary that sits on the job past
// HedgeAfter triggers a concurrent hedge dispatch; the fast successor
// wins and the caller never notices.
func TestClusterLatencyHedge(t *testing.T) {
	good, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})

	// The slow worker admits the job and then reports "running" forever.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			data, _ := io.ReadAll(r.Body)
			spec, err := service.ParseSpec(data)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_, id, _ := service.SpecKey(spec)
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(map[string]string{"id": id, "status": "queued"})
		case r.URL.Path == "/readyz":
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
		default:
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "running"})
		}
	}))
	t.Cleanup(slow.Close)

	spec := &client.JobSpec{Source: tinySrc}
	if primaryFor(t, spec, good.URL, slow.URL) != slow.URL {
		for i := 0; i < 1000; i++ {
			spec.Params = []uint32{uint32(i)}
			if primaryFor(t, spec, good.URL, slow.URL) == slow.URL {
				break
			}
		}
	}
	if primaryFor(t, spec, good.URL, slow.URL) != slow.URL {
		t.Fatal("could not steer a spec onto the slow worker")
	}

	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{good.URL, slow.URL},
		Metrics:       reg,
		HedgeAfter:    30 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait with a stuck primary: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("nil stats through the hedge")
	}
	if got := reg.Snapshot().Counters["cluster.hedges_fired_total"]; got != 1 {
		t.Errorf("hedges_fired_total = %d, want 1", got)
	}
}

// TestClusterColdStartServesFromStore: a brand-new coordinator process
// over yesterday's store directory — with zero workers configured —
// answers a previously-computed job from disk, byte-identical.
func TestClusterColdStartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := &client.JobSpec{Source: tinySrc}

	w1, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	co1, c1 := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL},
		Store:         openStore(t, dir),
		ProbeInterval: time.Hour,
	})
	resp1, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res1, err := c1.Wait(ctx, resp1.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := co1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Second life: no workers at all — only the store survives.
	reg := metrics.New()
	_, c2 := newCoordinator(t, cluster.Options{
		Store:         openStore(t, dir),
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	resp2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("cold Submit: %v", err)
	}
	if !resp2.Cached || resp2.Status != "done" || resp2.ID != resp1.ID {
		t.Fatalf("cold Submit = %+v, want cached done id %s", resp2, resp1.ID)
	}
	res2, err := c2.Result(ctx, resp2.ID)
	if err != nil {
		t.Fatalf("cold Result: %v", err)
	}
	got, _ := json.Marshal(res2.Stats)
	want, _ := json.Marshal(res1.Stats)
	if string(got) != string(want) {
		t.Errorf("cold-start stats differ:\nstore: %s\nfirst: %s", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.store_hits_total"] != 1 {
		t.Errorf("store_hits_total = %d, want 1", snap.Counters["cluster.store_hits_total"])
	}
	if snap.Counters["cluster.dispatches_total"] != 0 {
		t.Errorf("dispatches_total = %d on a workerless coordinator, want 0",
			snap.Counters["cluster.dispatches_total"])
	}

	// A job the store has never seen is unservable without workers.
	if _, err := c2.Submit(ctx, &client.JobSpec{Benchmark: "MatrixMul"}); err == nil {
		t.Error("novel Submit on a workerless coordinator succeeded, want 503")
	}
}

// TestClusterProbeEjectionAndReadmission: the Ready prober takes a
// worker that stops answering off the ring and puts it back when it
// recovers, with the topology endpoint tracking both transitions.
func TestClusterProbeEjectionAndReadmission(t *testing.T) {
	var sick atomic.Bool
	w1srv := service.New(service.Options{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { _ = w1srv.Drain(context.Background()) })
	inner := w1srv.Handler()
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() && r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w1.Close)
	w2, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})

	reg := metrics.New()
	co, _ := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL, w2.URL},
		Metrics:       reg,
		ProbeInterval: 10 * time.Millisecond,
	})

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	sick.Store(true)
	waitFor("ejection", func() bool { return !co.Healthy(w1.URL) })
	topo := co.Topology()
	if topo.RingNodes != 1 {
		t.Errorf("ring_nodes = %d after ejection, want 1", topo.RingNodes)
	}

	sick.Store(false)
	waitFor("readmission", func() bool { return co.Healthy(w1.URL) })
	if topo := co.Topology(); topo.RingNodes != 2 {
		t.Errorf("ring_nodes = %d after readmission, want 2", topo.RingNodes)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.worker_ejections_total"] < 1 {
		t.Error("no ejection counted")
	}
	if snap.Counters["cluster.worker_readmissions_total"] < 1 {
		t.Error("no readmission counted")
	}
	if snap.Gauges["cluster.ring_nodes"].Value != 2 {
		t.Errorf("ring_nodes gauge = %d, want 2", snap.Gauges["cluster.ring_nodes"].Value)
	}
}

// spinSrc loops 2^32 times, far longer than any test: the worker's
// JobTimeout is what ends it. That holds the job in flight for a known
// window after submission, then fails it.
const spinSrc = `
.kernel spin
	mov  r0, 0
LOOP:
	iadd r0, r0, 1
	setp.ne.u32 p0, r0, 0
	@p0 bra LOOP
	exit
`

// specBody encodes spec as a POST body and computes its job ID.
func specBody(t *testing.T, spec *client.JobSpec) (body, id string) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, id, err = service.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), id
}

// waitSettled polls a job's status until it is done or failed.
func waitSettled(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("status poll: %v", err)
		}
		var st client.StatusResponse
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.Status == "done" || st.Status == "failed" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
}

// TestAPIConformance drives the documented answers of docs/SERVICE.md,
// one row each, against a worker and against a coordinator over one
// worker: both modes must serve the same API. A spinning kernel, ended
// by the worker's JobTimeout, keeps the "in flight" rows deterministic.
func TestAPIConformance(t *testing.T) {
	const gate = 2 * time.Second
	worker := func(t *testing.T) (string, func(context.Context) error) {
		srv := service.New(service.Options{Workers: 1, QueueDepth: 4, JobTimeout: gate})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = srv.Drain(context.Background()) })
		return ts.URL, srv.Drain
	}
	coordinator := func(t *testing.T) (string, func(context.Context) error) {
		w, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4, JobTimeout: gate})
		co := cluster.New(cluster.Options{Workers: []string{w.URL}, ProbeInterval: time.Hour})
		ts := httptest.NewServer(co.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = co.Drain(context.Background()) })
		return ts.URL, co.Drain
	}

	spin, spinID := specBody(t, &client.JobSpec{Source: spinSrc})
	tiny, tinyID := specBody(t, &client.JobSpec{Source: tinySrc})
	fresh, _ := specBody(t, &client.JobSpec{Source: tinySrc, Params: []uint32{7}})
	huge := `{"source":"` + strings.Repeat("x", 1<<20) + `"}`
	const unknown = "/v1/jobs/jdeadbeefdeadbeef"

	type row struct {
		name         string
		before       func(t *testing.T, base string, drain func(context.Context) error)
		method, path string
		body         string
		code         int
		fields       map[string]any // expected top-level JSON fields; nil value: absent
		retryAfter   bool
	}
	settled := func(id string) func(*testing.T, string, func(context.Context) error) {
		return func(t *testing.T, base string, _ func(context.Context) error) { waitSettled(t, base, id) }
	}
	rows := []row{
		{name: "fresh submit is queued", method: "POST", path: "/v1/jobs", body: spin, code: 202,
			fields: map[string]any{"id": spinID, "status": "queued", "coalesced": nil, "cached": nil}},
		{name: "duplicate in-flight submit coalesces", method: "POST", path: "/v1/jobs", body: spin, code: 202,
			fields: map[string]any{"id": spinID, "coalesced": true}},
		{name: "unfinished result is 409 with Retry-After", path: "/v1/jobs/" + spinID + "/result", code: 409,
			retryAfter: true},
		{name: "second fresh submit", method: "POST", path: "/v1/jobs", body: tiny, code: 202},
		{name: "resubmit after done is cached", before: settled(tinyID), method: "POST", path: "/v1/jobs",
			body: tiny, code: 200, fields: map[string]any{"id": tinyID, "status": "done", "cached": true}},
		{name: "empty spec", method: "POST", path: "/v1/jobs", body: `{}`, code: 400},
		{name: "unknown field", method: "POST", path: "/v1/jobs", body: `{"benchmark":"Reduce","bogus":1}`, code: 400},
		{name: "body over 1 MiB", method: "POST", path: "/v1/jobs", body: huge, code: 413},
		{name: "status of unknown job", path: unknown, code: 404},
		{name: "result of unknown job", path: unknown + "/result", code: 404},
		{name: "result of failed job", before: settled(spinID), path: "/v1/jobs/" + spinID + "/result", code: 500},
		{name: "readyz after drain", before: func(t *testing.T, _ string, drain func(context.Context) error) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := drain(ctx); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		}, path: "/readyz", code: 503},
		{name: "submit after drain", method: "POST", path: "/v1/jobs", body: fresh, code: 503, retryAfter: true},
	}

	for _, mode := range []struct {
		name  string
		start func(t *testing.T) (string, func(context.Context) error)
	}{{"worker", worker}, {"coordinator", coordinator}} {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			base, drain := mode.start(t)
			for _, r := range rows {
				if r.before != nil {
					r.before(t, base, drain)
				}
				method := r.method
				if method == "" {
					method = http.MethodGet
				}
				req, err := http.NewRequest(method, base+r.path, strings.NewReader(r.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				var got map[string]any
				decErr := json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if resp.StatusCode != r.code {
					t.Errorf("%s: %s %s = %d %v, want %d", r.name, method, r.path, resp.StatusCode, got, r.code)
					continue
				}
				if decErr != nil {
					t.Errorf("%s: body is not JSON: %v", r.name, decErr)
				}
				if r.retryAfter && resp.Header.Get("Retry-After") == "" {
					t.Errorf("%s: no Retry-After header", r.name)
				}
				for k, want := range r.fields {
					v, present := got[k]
					if want == nil && present || want != nil && v != want {
						t.Errorf("%s: field %q = %v, want %v (body %v)", r.name, k, v, want, got)
					}
				}
			}
		})
	}
}

// seedStore computes spec once on a throwaway worker whose durable
// tier is dir, so later front ends over dir find it there.
func seedStore(t *testing.T, dir string, spec *client.JobSpec) {
	t.Helper()
	srv := service.New(service.Options{Workers: 1, Store: openStore(t, dir)})
	resp, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait(resp.ID)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClusterNoWorkersRefusalNotCounted: with every worker ejected, a
// job the store cannot answer is refused with 503 and is not counted as
// submitted, while a job the store holds is still answered.
func TestClusterNoWorkersRefusalNotCounted(t *testing.T) {
	dir := t.TempDir()
	stored := &client.JobSpec{Source: tinySrc}
	seedStore(t, dir, stored)
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)

	reg := metrics.New()
	co, c := newCoordinator(t, cluster.Options{
		Workers:       []string{down.URL},
		Store:         openStore(t, dir),
		Metrics:       reg,
		ProbeInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for co.Healthy(down.URL) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the worker's ejection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx := context.Background()
	submitted := func() int64 { return reg.Snapshot().Counters["cluster.jobs_submitted_total"] }

	if _, err := c.Submit(ctx, &client.JobSpec{Source: tinySrc, Params: []uint32{1}}); !errors.Is(err, client.ErrDraining) {
		t.Errorf("fresh Submit with no workers = %v, want 503", err)
	}
	if got := submitted(); got != 0 {
		t.Errorf("jobs_submitted_total = %d after a refusal, want 0", got)
	}
	resp, err := c.Submit(ctx, stored)
	if err != nil {
		t.Fatalf("stored Submit with no workers: %v", err)
	}
	if !resp.Cached || resp.Status != "done" {
		t.Errorf("stored Submit = %+v, want cached done", resp)
	}
	if got := submitted(); got != 1 {
		t.Errorf("jobs_submitted_total = %d after a store hit, want 1", got)
	}
}

// TestStoreHitRace: concurrent identical submissions against a cold
// front end whose store holds the result all answer cached, run
// nothing, and leave one table entry — the re-check after the
// off-lock store read settles every race. Both modes.
func TestStoreHitRace(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	spec := &client.JobSpec{Source: tinySrc}
	seedStore(t, dir, spec)

	submitAll := func(t *testing.T, submit func() (*client.SubmitResponse, error)) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := submit()
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if !resp.Cached || resp.Status != "done" {
					t.Errorf("Submit = %+v, want cached done", resp)
				}
			}()
		}
		wg.Wait()
	}

	t.Run("worker", func(t *testing.T) {
		reg := metrics.New()
		srv := service.New(service.Options{Workers: 1, Store: openStore(t, dir), Metrics: reg})
		t.Cleanup(func() { _ = srv.Drain(context.Background()) })
		submitAll(t, func() (*client.SubmitResponse, error) { return srv.Submit(spec) })
		snap := reg.Snapshot()
		if got := snap.Counters["service.jobs_executed_total"]; got != 0 {
			t.Errorf("jobs_executed_total = %d, want 0", got)
		}
		if got := snap.Counters["service.cache_hits_total"]; got != n {
			t.Errorf("cache_hits_total = %d, want %d", got, n)
		}
		if got := snap.Gauges["service.cache_entries"].Value; got != 1 {
			t.Errorf("cache_entries = %d, want 1", got)
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		w, wreg := newWorker(t, service.Options{Workers: 1})
		reg := metrics.New()
		co, c := newCoordinator(t, cluster.Options{
			Workers:       []string{w.URL},
			Store:         openStore(t, dir),
			Metrics:       reg,
			ProbeInterval: time.Hour,
		})
		ctx := context.Background()
		submitAll(t, func() (*client.SubmitResponse, error) { return c.Submit(ctx, spec) })
		snap := reg.Snapshot()
		if got := snap.Counters["cluster.dispatches_total"]; got != 0 {
			t.Errorf("dispatches_total = %d, want 0", got)
		}
		if got := snap.Counters["cluster.cache_hits_total"] + snap.Counters["cluster.store_hits_total"]; got != n {
			t.Errorf("cache_hits + store_hits = %d, want %d", got, n)
		}
		if got := wreg.Snapshot().Counters["service.jobs_executed_total"]; got != 0 {
			t.Errorf("worker executed %d jobs, want 0", got)
		}
		if topo := co.Topology(); topo.Completed != 1 || topo.InFlight != 0 {
			t.Errorf("topology completed/in-flight = %d/%d, want 1/0", topo.Completed, topo.InFlight)
		}
	})
}
