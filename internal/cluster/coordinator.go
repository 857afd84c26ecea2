package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"warped/client"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/store"
)

// ErrNoWorkers refuses a fresh submission when every configured worker
// is off the ring; a job a cache tier holds is still answered.
var ErrNoWorkers = errors.New("cluster: no healthy workers")

const (
	// maxCompleted bounds the finished jobs the coordinator retains in
	// memory. Evicted successes remain answerable through the Store.
	maxCompleted = 4096

	// requestTimeout bounds each individual HTTP exchange with a
	// worker. It caps how long a hung worker can stall a dispatch or a
	// probe, without capping total job wall time.
	requestTimeout = 10 * time.Second
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the base URLs of the warpd workers to shard across
	// (e.g. "http://10.0.0.1:8080"). Trailing slashes are tolerated;
	// duplicates are collapsed. A coordinator with zero workers can
	// still answer previously-computed jobs from its Store.
	Workers []string

	// VNodes is the virtual-node count per worker on the hash ring
	// (default DefaultVNodes).
	VNodes int

	// Store is the coordinator's durable result tier. Entries use the
	// same content-addressed format as a worker's own store, so a
	// directory can move between the two roles. Nil disables
	// durability; results then live only in the bounded in-memory map.
	Store *store.Store

	// Metrics receives the cluster.* instrument set; nil disables.
	Metrics *metrics.Registry

	// HedgeAfter, when positive, launches a concurrent dispatch to the
	// next ring node if the primary has not answered within this
	// duration — the latency hedge. Zero disables it; error-triggered
	// re-dispatch (draining, dead, saturated workers) is always on.
	HedgeAfter time.Duration

	// ProbeInterval is the cadence of the worker Ready probes that
	// drive ring ejection and readmission (default 2s).
	ProbeInterval time.Duration

	// HTTPClient, when non-nil, carries every worker exchange so the
	// whole pool shares one transport. Defaults to a fresh client.
	HTTPClient *http.Client
}

// Coordinator shards content-addressed jobs across a pool of warpd
// workers. It is warpd's own job front end (service.Server) over a
// ring executor, so callers use the warped/client package (or raw
// HTTP) against it unchanged, and it dispatches to workers the same
// way. Placement is consistent-hashed on the job's canonical spec
// hash; identical submissions coalesce cluster-wide onto one dispatch
// and share one durable store entry.
type Coordinator struct {
	front *service.Server
	d     *dispatcher
	store *store.Store
}

// dispatcher is the coordinator's service.Executor: it runs each
// admitted job on the job's ring node, re-dispatching and hedging
// along the ring's successor list, and keeps the ring in step with
// worker health.
type dispatcher struct {
	running sync.WaitGroup // dispatches in progress; first for 64-bit alignment

	workers   []string // sorted, normalized
	workerIdx map[string]int
	clients   map[string]*client.Client
	ring      *Ring
	met       *metrics.Cluster
	hedge     time.Duration // Options.HedgeAfter

	mu sync.Mutex // serializes ring membership changes (setHealth)

	dispatchCtx    context.Context
	dispatchCancel context.CancelFunc
	probeCancel    context.CancelFunc
	probeDone      chan struct{}
}

// New builds a coordinator and starts its worker health prober. Stop
// it with Drain.
func New(opts Options) *Coordinator {
	seen := make(map[string]bool)
	var workers []string
	for _, w := range opts.Workers {
		w = strings.TrimRight(w, "/")
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		workers = append(workers, w)
	}
	sort.Strings(workers)

	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	probeInterval := opts.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = 2 * time.Second
	}

	d := &dispatcher{
		workers:   workers,
		workerIdx: make(map[string]int, len(workers)),
		clients:   make(map[string]*client.Client, len(workers)),
		ring:      NewRing(opts.VNodes),
		met:       metrics.ForCluster(opts.Metrics, len(workers)),
		hedge:     opts.HedgeAfter,
		probeDone: make(chan struct{}),
	}
	for i, w := range workers {
		d.workerIdx[w] = i
		c := client.NewWithHTTPClient(w, hc)
		c.RequestTimeout = requestTimeout
		c.MaxRetries = 2
		c.Backoff = 50 * time.Millisecond
		c.PollInterval = 25 * time.Millisecond
		d.clients[w] = c
		// Workers start on the ring optimistically; the prober (and any
		// failed dispatch) ejects the ones that turn out to be down.
		d.ring.Add(w)
	}
	d.met.RingNodes.Set(int64(d.ring.Len()))

	d.dispatchCtx, d.dispatchCancel = context.WithCancel(context.Background())
	probeCtx, probeCancel := context.WithCancel(context.Background())
	d.probeCancel = probeCancel
	go d.probeLoop(probeCtx, probeInterval)
	return &Coordinator{
		front: service.NewFrontEnd(d, maxCompleted, opts.Store, opts.Metrics, &d.met.FrontEnd),
		d:     d,
		store: opts.Store,
	}
}

// Healthy reports whether worker w is currently on the ring.
func (co *Coordinator) Healthy(w string) bool { return co.d.ring.Has(strings.TrimRight(w, "/")) }

// Drain stops admitting new work (a cache or store hit is still
// answered), halts the prober, and waits for every in-flight dispatch
// to settle or ctx to fire, whichever comes first. The coordinator
// cannot dispatch afterwards.
func (co *Coordinator) Drain(ctx context.Context) error { return co.front.Drain(ctx) }

// Start dispatches an admitted job to its ring node; ErrNoWorkers when
// the ring is empty.
func (d *dispatcher) Start(j *service.Job) error {
	if d.ring.Len() == 0 {
		return ErrNoWorkers
	}
	d.running.Add(1)
	go func() {
		defer d.running.Done()
		d.dispatch(j)
	}()
	return nil
}

// Drain halts the prober and waits for every dispatch to settle, or
// ctx to fire; then it cancels whatever is still talking to a worker.
func (d *dispatcher) Drain(ctx context.Context) error {
	d.probeCancel()
	<-d.probeDone
	defer d.dispatchCancel()
	idle := make(chan struct{})
	go func() {
		d.running.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dispatch drives one job to completion: submit to the job's ring
// node, walk the successor list on retriable failures, and (when
// configured) hedge with a concurrent dispatch if the primary is slow.
// First success wins; a non-retriable failure (spec rejection,
// worker-reported job failure) settles the job immediately.
func (d *dispatcher) dispatch(j *service.Job) {
	j.Running()
	ctx := d.dispatchCtx
	candidates := d.ring.Successors(j.Hash, 0) // every healthy worker, ring order
	outcomes := make(chan attemptOutcome, len(candidates))
	inflight, next := 0, 0
	launch := func() bool {
		if next >= len(candidates) {
			return false
		}
		w := candidates[next]
		next++
		inflight++
		d.met.Dispatches.Inc()
		if i, ok := d.workerIdx[w]; ok {
			d.met.WorkerDispatches[i].Inc()
		}
		go func() { outcomes <- d.attempt(ctx, w, j.Spec) }()
		return true
	}
	if !launch() {
		j.Finish(nil, ErrNoWorkers)
		return
	}

	var hedge <-chan time.Time
	if d.hedge > 0 {
		t := time.NewTimer(d.hedge)
		defer t.Stop()
		hedge = t.C
	}
	var lastErr error
	for inflight > 0 {
		select {
		case <-ctx.Done():
			j.Finish(nil, errors.New("cluster: coordinator shut down mid-dispatch"))
			return
		case <-hedge:
			hedge = nil
			if launch() {
				d.met.HedgesFired.Inc()
			}
		case o := <-outcomes:
			inflight--
			if o.err == nil {
				j.Finish(o.res, nil)
				return
			}
			lastErr = o.err
			if o.transport {
				d.setHealth(o.worker, false)
			}
			if !o.retriable {
				j.Finish(nil, o.err)
				return
			}
			if launch() {
				d.met.Redispatches.Inc()
			} else if inflight == 0 {
				j.Finish(nil, fmt.Errorf("cluster: all %d candidate workers failed, last: %v",
					len(candidates), lastErr))
				return
			}
		}
	}
}

// attemptOutcome is one worker's answer to a dispatched job.
type attemptOutcome struct {
	worker    string
	res       *service.JobResult
	err       error
	retriable bool // worth re-dispatching to the next ring node
	transport bool // the worker did not answer at all: eject it
}

// attempt runs spec to completion on one worker.
func (d *dispatcher) attempt(ctx context.Context, worker string, spec *service.JobSpec) attemptOutcome {
	c := d.clients[worker]
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		return classify(worker, err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		return classify(worker, err)
	}
	return attemptOutcome{worker: worker, res: &service.JobResult{Stats: res.Stats,
		Attempts: res.Attempts, Recovered: res.Recovered, Detections: res.Detections}}
}

// classify sorts a worker error into the hedging policy's buckets:
//
//   - draining (503), saturated past the retry budget (429), or a
//     worker that lost the job (404, e.g. it restarted): retriable on
//     the next ring node;
//   - no HTTP answer at all: retriable, and the worker is ejected;
//   - anything else the worker said (spec rejection, job failure):
//     deterministic — every replica would answer the same, fail fast.
func classify(worker string, err error) attemptOutcome {
	out := attemptOutcome{worker: worker, err: err}
	if errors.Is(err, client.ErrDraining) {
		out.retriable = true
		return out
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusNotFound:
			out.retriable = true
		}
		return out
	}
	out.retriable = true
	out.transport = true
	return out
}

// probeLoop polls every worker's readiness on a fixed cadence, driving
// ring ejection and readmission.
func (d *dispatcher) probeLoop(ctx context.Context, every time.Duration) {
	defer close(d.probeDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			d.probeAll(ctx)
		}
	}
}

// probeAll runs one probe round. Workers are probed concurrently so a
// hung worker costs one request timeout, not one per worker.
func (d *dispatcher) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			ok, err := d.clients[w].Ready(ctx)
			d.setHealth(w, ok && err == nil)
		}(w)
	}
	wg.Wait()
}

// setHealth moves a worker on or off the ring, counting the
// transition. Safe for concurrent use.
func (d *dispatcher) setHealth(worker string, healthy bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.workerIdx[worker]; !known || d.ring.Has(worker) == healthy {
		return
	}
	if healthy {
		d.ring.Add(worker)
		d.met.Readmissions.Inc()
	} else {
		d.ring.Remove(worker)
		d.met.Ejections.Inc()
	}
	d.met.RingNodes.Set(int64(d.ring.Len()))
}

// ---- HTTP surface ----------------------------------------------------

// TopologyResponse answers GET /v1/cluster.
type TopologyResponse struct {
	Workers   []WorkerInfo `json:"workers"`
	RingNodes int          `json:"ring_nodes"`
	VNodes    int          `json:"vnodes"`
	InFlight  int          `json:"in_flight"`
	Completed int          `json:"completed"`
	Draining  bool         `json:"draining"`
	Store     *StoreInfo   `json:"store,omitempty"`
}

// WorkerInfo is one worker's place in the topology.
type WorkerInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// StoreInfo summarizes the durable result store.
type StoreInfo struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Topology snapshots the cluster for GET /v1/cluster.
func (co *Coordinator) Topology() *TopologyResponse {
	inFlight, completed := co.front.Jobs()
	resp := &TopologyResponse{
		RingNodes: co.d.ring.Len(),
		VNodes:    co.d.ring.vnodes,
		InFlight:  inFlight,
		Completed: completed,
		Draining:  co.front.Draining(),
	}
	for _, w := range co.d.workers {
		resp.Workers = append(resp.Workers, WorkerInfo{URL: w, Healthy: co.d.ring.Has(w)})
	}
	if co.store != nil {
		resp.Store = &StoreInfo{Dir: co.store.Dir(), Entries: co.store.Len(), Bytes: co.store.Bytes()}
	}
	return resp
}

// Handler mounts the coordinator's HTTP surface: the front end's /v1
// job API, health probe and /debug (so warped/client works unchanged),
// plus the /v1/cluster topology endpoint and the cluster's own answers
// for /v1/benchmarks and /readyz. See docs/CLUSTER.md.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", co.front.Handler())
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, co.Topology())
	})
	mux.HandleFunc("GET /v1/benchmarks", co.handleBenchmarks)
	mux.HandleFunc("GET /readyz", co.handleReady)
	return mux
}

// handleBenchmarks proxies the workload list from the first healthy
// worker — every worker runs the same build, so any answer is the
// cluster's answer.
func (co *Coordinator) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	for _, worker := range co.d.ring.Nodes() {
		names, err := co.d.clients[worker].Benchmarks(r.Context())
		if err != nil {
			continue
		}
		service.WriteJSON(w, http.StatusOK, map[string][]string{"benchmarks": names})
		return
	}
	service.WriteError(w, http.StatusServiceUnavailable, ErrNoWorkers.Error())
}

// handleReady answers the coordinator's own readiness: it can do work
// iff it is not draining and at least one worker is on the ring (a
// store-only coordinator still answers cached jobs, but is not ready
// for new work).
func (co *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case co.front.Draining():
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case co.d.ring.Len() == 0:
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy workers"})
	default:
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
