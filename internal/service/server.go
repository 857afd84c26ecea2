package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/stats"
	"warped/internal/store"
)

// Typed admission errors, shared with the runner pool so callers (and
// the HTTP layer) branch on one vocabulary.
var (
	// ErrDraining is returned by Submit once Drain has begun: the
	// daemon finishes accepted work but admits nothing new (HTTP 503).
	ErrDraining = runner.ErrPoolDraining

	// ErrBusy is returned by Submit when the bounded job queue is at
	// capacity (HTTP 429 + Retry-After).
	ErrBusy = runner.ErrQueueFull
)

// jobState is the lifecycle of one job in the cache.
type jobState int

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
)

func (st jobState) String() string {
	switch st {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("jobState(%d)", int(st))
	}
}

// job is one entry of the job table: its lifecycle, and its outcome
// once finished. The entry exists from admission on, which is what
// makes the table double as the coalescing mechanism — a duplicate
// submission finds the in-flight entry and attaches instead of running
// the work again.
type job struct {
	id       string
	state    jobState
	result   *JobResult
	errMsg   string
	done     chan struct{} // closed when the job reaches done/failed
	elem     *list.Element // LRU position; nil until completed
	enqueued time.Time
}

// Options sizes a Server.
type Options struct {
	// Workers is the simulation concurrency; <= 0 means GOMAXPROCS.
	Workers int

	// QueueDepth bounds accepted-but-not-started jobs; <= 0 means 64.
	// Beyond it, Submit sheds load with ErrBusy.
	QueueDepth int

	// CacheEntries bounds the completed results retained for cache
	// hits; <= 0 means 256. Least-recently-used entries are evicted
	// (and re-run on resubmission).
	CacheEntries int

	// JobTimeout bounds one job's wall-clock execution (all attempts);
	// 0 means no limit.
	JobTimeout time.Duration

	// Metrics, when non-nil, receives the service.* instrument set plus
	// the runner.* pool telemetry and the sim/DMR counters of every
	// executed job. It is also what GET /debug/metrics serves.
	Metrics *metrics.Registry

	// Store, when non-nil, is the durable content-addressed result tier
	// behind the in-memory LRU: completed results are persisted to it,
	// and a Submit that misses the LRU is answered from it without
	// re-simulating (docs/CLUSTER.md). Content addressing makes entries
	// immutable, so a store directory is safe to keep across restarts
	// and to share between daemons that never run concurrently on it.
	Store *store.Store
}

// Executor runs the jobs a Server admits. The worker daemon's executor
// simulates them on a local runner pool; the cluster coordinator's
// dispatches them to worker daemons over a hash ring.
type Executor interface {
	// Start begins running j without blocking. A non-nil error refuses
	// the job synchronously (ErrBusy answers 429, anything else 503)
	// and j is dropped. Otherwise the executor calls j.Finish exactly
	// once, from any goroutine, with a result or an error, and may call
	// j.Running before that. The Server calls Start under its own lock,
	// so Start must not call back into the Server.
	Start(j *Job) error

	// Drain waits until every started job has finished, or ctx fires,
	// and then releases the executor. The Server stops calling Start
	// before it calls Drain.
	Drain(ctx context.Context) error
}

// Job is an admitted job as its Executor sees it.
type Job struct {
	// ID and Hash are the job's content address: the wire ID and the
	// full canonical-spec hash (the durable-store and ring key).
	ID   string
	Hash string

	// Spec is the submission as the caller sent it.
	Spec *JobSpec

	canon *canonicalJob
	s     *Server
	entry *job
}

// Running records that execution has begun: status polls answer
// "running" instead of "queued" from then on.
func (j *Job) Running() {
	j.s.mu.Lock()
	j.entry.state = stateRunning
	j.s.mu.Unlock()
}

// Finish settles the job: a success is persisted to the durable store
// (outside the table lock) and retained in the LRU, a failure keeps its
// error for status polls. Every waiter is woken.
func (j *Job) Finish(res *JobResult, err error) {
	s, e := j.s, j.entry
	if err == nil {
		s.storePut(j.Hash, res)
	}
	s.mu.Lock()
	if err != nil {
		e.state = stateFailed
		e.errMsg = err.Error()
		s.met.JobsFailed.Inc()
	} else {
		e.state = stateDone
		e.result = res
	}
	s.met.JobsExecuted.Inc()
	s.met.JobLatencyMS.Observe(time.Since(e.enqueued).Milliseconds())
	e.elem = s.lru.PushFront(e)
	s.evictLocked()
	s.mu.Unlock()
	close(e.done)
}

// Server is warpd's job front end: content-addressed job table with
// in-flight coalescing, a bounded completed-result LRU over an optional
// durable store, admission onto an Executor, and a graceful drain. It
// is transport-independent — Handler mounts the HTTP surface on top.
type Server struct {
	exec     Executor
	reg      *metrics.Registry
	met      *metrics.FrontEnd
	cacheCap int
	store    *store.Store // durable tier; nil when not configured

	mu       sync.Mutex
	jobs     map[string]*job
	lru      *list.List // completed *job entries, most recently used first
	draining bool
}

// New builds the worker daemon: a Server that simulates admitted jobs
// on a local runner pool, which it starts.
func New(opt Options) *Server {
	capEntries := opt.CacheEntries
	if capEntries <= 0 {
		capEntries = 256
	}
	exec := &localExecutor{
		pool: runner.NewPool(runner.PoolOptions{
			Workers:    opt.Workers,
			QueueDepth: opt.QueueDepth,
			Metrics:    opt.Metrics,
		}),
		timeout: opt.JobTimeout,
		reg:     opt.Metrics,
	}
	return NewFrontEnd(exec, capEntries, opt.Store, opt.Metrics, metrics.ForService(opt.Metrics))
}

// NewFrontEnd builds a Server that runs admitted jobs on exec, retains
// up to cacheEntries completed results in memory over the durable tier
// st (nil for none), counts into met, and serves reg on /debug.
func NewFrontEnd(exec Executor, cacheEntries int, st *store.Store, reg *metrics.Registry, met *metrics.FrontEnd) *Server {
	return &Server{
		exec:     exec,
		reg:      reg,
		met:      met,
		cacheCap: cacheEntries,
		store:    st,
		jobs:     make(map[string]*job),
		lru:      list.New(),
	}
}

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	// ID is the job's content address; resubmitting the same work
	// always yields the same ID.
	ID string `json:"id"`

	// Status is the job's lifecycle state: queued, running, done or
	// failed.
	Status string `json:"status"`

	// Cached reports the submission was answered from a completed
	// result without simulating.
	Cached bool `json:"cached,omitempty"`

	// Coalesced reports the submission attached to an identical job
	// already queued or running.
	Coalesced bool `json:"coalesced,omitempty"`
}

// StatusResponse answers GET /v1/jobs/{id}.
type StatusResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"` // failed jobs only
}

// ResultResponse answers GET /v1/jobs/{id}/result for a done job.
type ResultResponse struct {
	ID         string       `json:"id"`
	Stats      *stats.Stats `json:"stats"`
	Attempts   int          `json:"attempts"`
	Recovered  bool         `json:"recovered"`
	Detections int          `json:"detections"`
}

// Submit admits one job: a completed identical job is a cache hit, an
// in-flight identical job coalesces, a fresh job is canonicalized and
// handed to the executor. The error is ErrDraining, or the executor's
// refusal (ErrBusy from the worker's full queue), for admission
// refusals; anything else is a spec validation failure.
func (s *Server) Submit(spec *JobSpec) (*SubmitResponse, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	hash := canon.Hash()
	id := IDFromHash(hash)

	s.mu.Lock()
	resp, ok := s.admitLocked(id)
	s.mu.Unlock()
	if ok {
		return resp, nil
	}

	// The in-memory LRU missed; the durable tier may still hold the
	// result from a prior process (or an evicted entry). It is read off
	// the lock, so disk reads never stall status polls, and the table is
	// checked again afterwards in case an identical submission won.
	if res := s.storeGet(hash); res != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if resp, ok := s.admitLocked(id); ok {
			return resp, nil
		}
		j := &job{id: id, state: stateDone, result: res, done: make(chan struct{})}
		close(j.done)
		j.elem = s.lru.PushFront(j)
		s.jobs[id] = j
		s.evictLocked()
		s.met.JobsSubmitted.Inc()
		s.met.StoreHits.Inc()
		return &SubmitResponse{ID: id, Status: j.state.String(), Cached: true}, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if resp, ok := s.admitLocked(id); ok {
		return resp, nil
	}
	if s.draining {
		s.met.JobsRejected.Inc()
		return nil, ErrDraining
	}
	j := &job{id: id, state: stateQueued, done: make(chan struct{}), enqueued: time.Now()}
	if err := s.exec.Start(&Job{ID: id, Hash: hash, Spec: spec, canon: canon, s: s, entry: j}); err != nil {
		s.met.JobsRejected.Inc()
		return nil, refusal{err}
	}
	s.jobs[id] = j
	s.met.JobsSubmitted.Inc()
	s.met.Misses.Inc()
	return &SubmitResponse{ID: id, Status: j.state.String()}, nil
}

// refusal marks an executor's admission refusal, so the HTTP layer can
// tell it from a spec validation error.
type refusal struct{ error }

func (r refusal) Unwrap() error { return r.error }

// admitLocked answers a submission from the job table when it can: a
// completed success is a cache hit, an in-flight job coalesces. A
// failed entry is dropped so the caller re-admits it: failures are
// never served as hits, so a transient failure (timeout, dead worker)
// is retried by resubmission. Caller holds s.mu.
func (s *Server) admitLocked(id string) (*SubmitResponse, bool) {
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	switch j.state {
	case stateDone:
		s.met.JobsSubmitted.Inc()
		s.met.MemHits.Inc()
		s.lru.MoveToFront(j.elem)
		return &SubmitResponse{ID: id, Status: j.state.String(), Cached: true}, true
	case stateQueued, stateRunning:
		s.met.JobsSubmitted.Inc()
		s.met.Coalesced.Inc()
		return &SubmitResponse{ID: id, Status: j.state.String(), Coalesced: true}, true
	case stateFailed:
		s.removeLocked(j)
	}
	return nil, false
}

// Status reports a job's lifecycle state; false when the ID is neither
// in flight nor retained.
func (s *Server) Status(id string) (*StatusResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return &StatusResponse{ID: j.id, Status: j.state.String(), Error: j.errMsg}, true
}

// Result returns a done job's result. The boolean reports existence;
// a nil response with existence means the job is not done yet (still
// queued/running, or failed — check Status).
func (s *Server) Result(id string) (*ResultResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	if j.state != stateDone {
		return nil, true
	}
	s.lru.MoveToFront(j.elem)
	return &ResultResponse{
		ID:         j.id,
		Stats:      j.result.Stats,
		Attempts:   j.result.Attempts,
		Recovered:  j.result.Recovered,
		Detections: j.result.Detections,
	}, true
}

// Wait blocks until the job finishes (done or failed); false when the
// ID is unknown.
func (s *Server) Wait(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	<-j.done
	return true
}

// Jobs reports the job table's occupancy: jobs queued or running, and
// completed (done or failed) entries retained.
func (s *Server) Jobs() (inFlight, completed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs) - s.lru.Len(), s.lru.Len()
}

// Drain stops admission immediately (a submission the cache cannot
// answer returns ErrDraining, the readiness probe flips to 503) and
// waits for every admitted job to finish, or for ctx to fire.
// Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.exec.Drain(ctx)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// evictLocked enforces the LRU cache bound. Caller holds s.mu.
func (s *Server) evictLocked() {
	for s.lru.Len() > s.cacheCap {
		oldest := s.lru.Back()
		s.removeLocked(oldest.Value.(*job))
		s.met.Evictions.Inc()
	}
	s.met.Entries.Set(int64(s.lru.Len()))
}

// storeGet reads a verified result from the durable tier; nil on a
// miss, corruption, or when no store is configured.
func (s *Server) storeGet(hash string) *JobResult {
	if s.store == nil {
		return nil
	}
	payload, ok := s.store.Get(hash)
	if !ok {
		return nil
	}
	var res JobResult
	if err := json.Unmarshal(payload, &res); err != nil || res.Stats == nil {
		// A payload that verified but does not decode is a schema drift
		// artifact (e.g. a store dir from a different build); miss.
		return nil
	}
	return &res
}

// storePut persists a completed result to the durable tier; best
// effort — a full disk or unwritable directory degrades the daemon to
// in-memory caching, it does not fail the job.
func (s *Server) storePut(hash string, res *JobResult) {
	if s.store == nil || res == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	_ = s.store.Put(hash, payload)
}

// removeLocked drops a completed entry from the map and LRU ring.
// Caller holds s.mu.
func (s *Server) removeLocked(j *job) {
	delete(s.jobs, j.id)
	if j.elem != nil {
		s.lru.Remove(j.elem)
		j.elem = nil
	}
	s.met.Entries.Set(int64(s.lru.Len()))
}

// Handler mounts the HTTP surface: the /v1 job API, the health and
// readiness probes, and the /debug operational endpoints (pprof,
// expvar, metrics snapshot). See docs/SERVICE.md for the API
// reference.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("/debug/", metrics.Handler(s.reg))
	return mux
}

// maxSpecBytes bounds a POSTed job spec (inline kernels included); a
// bigger body is a client error, not a reason to balloon the daemon.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("service: reading body: %v", err))
		return
	}
	if len(body) > maxSpecBytes {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("service: job spec exceeds %d bytes", maxSpecBytes))
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.Submit(spec)
	var refused refusal
	switch {
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, "service: draining, not accepting jobs")
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "service: job queue is full, retry later")
	case errors.As(err, &refused):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
	case resp.Cached:
		WriteJSON(w, http.StatusOK, resp)
	default:
		WriteJSON(w, http.StatusAccepted, resp)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok := s.Status(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("service: unknown job %q", id))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok := s.Result(id)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("service: unknown job %q", id))
		return
	}
	if resp == nil {
		st, _ := s.Status(id)
		if st != nil && st.Status == stateFailed.String() {
			WriteError(w, http.StatusInternalServerError,
				fmt.Sprintf("service: job %s failed: %s", id, st.Error))
			return
		}
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusConflict, fmt.Sprintf("service: job %s is not finished", id))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	names := kernels.Names()
	for _, b := range kernels.Extras() {
		names = append(names, b.Name)
	}
	WriteJSON(w, http.StatusOK, map[string][]string{"benchmarks": names})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// WriteJSON answers with v as the JSON body and the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the API's error envelope, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
