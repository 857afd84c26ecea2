package service

import (
	"context"
	"fmt"
	"time"

	"warped/internal/asm"
	"warped/internal/core"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
)

// JobResult is the durable outcome of one executed job: the merged
// deterministic statistics plus the retry bookkeeping. It mirrors the
// public warped.Result so a service answer is byte-comparable to a
// direct library run with the same canonical inputs.
type JobResult struct {
	Stats *stats.Stats `json:"stats"`

	// Attempts is the number of workload executions behind this result:
	// 1 unless the retry budget re-ran the workload after a detection.
	Attempts int `json:"attempts"`

	// Recovered reports that at least one attempt was discarded after a
	// comparator detection (or crash) and a later attempt ran clean.
	Recovered bool `json:"recovered"`

	// Detections counts comparator mismatches across all attempts.
	Detections int `json:"detections"`
}

// localExecutor is the worker daemon's Executor: it simulates each
// admitted job in this process, on a bounded runner pool whose full
// queue refuses with ErrBusy.
type localExecutor struct {
	pool    *runner.Pool
	timeout time.Duration     // per-job wall-clock budget; 0 means none
	reg     *metrics.Registry // receives each run's sim/DMR telemetry
}

func (l *localExecutor) Start(j *Job) error {
	// The pool runs done after the task on the same worker goroutine,
	// so res needs no lock. A panicking task leaves it nil and done
	// receives the *runner.PanicError.
	var res *JobResult
	return l.pool.Submit(
		func() (err error) {
			j.Running()
			ctx := context.Background()
			if l.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, l.timeout)
				defer cancel()
			}
			res, err = j.canon.execute(ctx, j.ID, l.reg)
			return err
		},
		func(err error) { j.Finish(res, err) },
	)
}

func (l *localExecutor) Drain(ctx context.Context) error { return l.pool.Drain(ctx) }

// execute runs the canonical job to completion under ctx, reporting
// operational telemetry into reg (which may be nil). The control flow
// deliberately mirrors warped.Runner.Run attempt-for-attempt — same
// fresh-GPU-per-attempt, same shared injector across attempts, same
// validate-only-fault-free default — so a cached service result is
// byte-identical to what the library would have produced.
func (c *canonicalJob) execute(ctx context.Context, id string, reg *metrics.Registry) (*JobResult, error) {
	inj, err := injector(c.Faults)
	if err != nil {
		return nil, err
	}
	opts := sim.LaunchOpts{StopOnError: c.StopOnError, Metrics: reg}
	if inj != nil {
		// Assign only when non-nil: a typed nil in the FaultHook
		// interface would read as "fault injection on".
		opts.Fault = inj
	}
	detections := 0
	opts.OnError = func(core.ErrorEvent) { detections++ }

	out := &JobResult{}
	for attempt := 1; attempt <= c.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: job %s: %w", id, err)
		}
		out.Attempts = attempt
		st, err := c.runAttempt(ctx, id, opts)
		out.Detections = detections
		if err == nil && st.FaultsDetected == 0 {
			out.Stats = st
			out.Recovered = attempt > 1
			return out, nil
		}
		if err != nil && ctx.Err() != nil {
			return nil, err // cancelled mid-attempt: don't retry
		}
		if c.Attempts == 1 {
			if err != nil {
				return nil, err
			}
			// Mismatches were detected but the run completed (no
			// StopOnError, no retry budget): report them in the result.
			out.Stats = st
			return out, nil
		}
		// Detected (or crashed) with retries left: discard the attempt.
	}
	return nil, fmt.Errorf("service: job %s still failing after %d attempts: fault appears permanent", id, out.Attempts)
}

// runAttempt executes one full workload attempt on a fresh GPU.
func (c *canonicalJob) runAttempt(ctx context.Context, id string, opts sim.LaunchOpts) (*stats.Stats, error) {
	g, err := sim.New(c.Config, 0)
	if err != nil {
		return nil, err
	}
	if c.Benchmark != "" {
		return c.runBenchmark(ctx, g, opts)
	}
	return c.runSource(ctx, g, id, opts)
}

// runBenchmark mirrors warped.runOnce: execute every launch step,
// merge serially, then validate against the host reference only when
// no faults are being injected (corrupted outputs are the scenario
// under study in a campaign).
func (c *canonicalJob) runBenchmark(ctx context.Context, g *sim.GPU, opts sim.LaunchOpts) (*stats.Stats, error) {
	b, err := findBenchmark(c.Benchmark)
	if err != nil {
		return nil, err
	}
	run, err := b.Build(g)
	if err != nil {
		return nil, err
	}
	total := &stats.Stats{}
	for i, step := range run.Steps {
		st, err := g.LaunchContext(ctx, step.Kernel, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: launch %d: %w", b.Name, i, err)
		}
		total.MergeSerial(st)
		if step.Host != nil {
			if err := step.Host(g); err != nil {
				return nil, err
			}
		}
	}
	if len(c.Faults) == 0 && run.Check != nil {
		if err := run.Check(g); err != nil {
			return nil, fmt.Errorf("%s: validation: %w", b.Name, err)
		}
	}
	return total, nil
}

// runSource assembles and launches an inline kernel. The source name
// is the job's content address, so assembly and static-verification
// diagnostics point back at the job that carried the bad kernel.
func (c *canonicalJob) runSource(ctx context.Context, g *sim.GPU, id string, opts sim.LaunchOpts) (*stats.Stats, error) {
	prog, err := asm.AssembleVerifiedNamed("job:"+id, c.Source)
	if err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:        prog,
		GridX:       c.GridX,
		GridY:       c.GridY,
		BlockX:      c.BlockX,
		BlockY:      c.BlockY,
		SharedBytes: c.SharedBytes,
	}
	if k.SharedBytes < prog.SharedBytes {
		k.SharedBytes = prog.SharedBytes
	}
	if len(c.Params) > 0 {
		k.Params = mem.NewParams(c.Params...)
	}
	return g.LaunchContext(ctx, k, opts)
}
