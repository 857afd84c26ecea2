package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"warped/internal/arch"
	"warped/internal/mem"
	"warped/internal/metrics"
)

// stuckSrc parks warp 0 at a barrier that warp 1 never reaches: warp 1
// chases a self-referencing pointer through global memory forever, so
// its SM issues one instruction pair per load latency and sleeps in
// between, and SMs without a block sleep throughout.
const stuckSrc = `
.kernel stuck
	mov r1, %tid.x
	setp.lt.s32 p0, r1, 32
	@p0 bra WAIT
	mov r0, 0
SPIN:
	ld.global r0, [r0]
	bra SPIN
WAIT:
	bar.sync
	exit
`

func stuckLaunch(t *testing.T, numSMs int) (*GPU, *Kernel) {
	cfg := arch.PaperConfig()
	cfg.NumSMs = numSMs
	cfg.ModelCaches = false // every load pays the full DRAM latency
	return launch(t, cfg, stuckSrc, func(_ *GPU, k *Kernel) { k.BlockX = 64 })
}

// TestWatchdogWhileAsleep: a barrier-stuck launch fails with the
// watchdog at exactly MaxCycles, even though every SM is asleep for
// most of the run and the clock jumps over those cycles.
func TestWatchdogWhileAsleep(t *testing.T) {
	for _, sms := range []int{1, 4} {
		for _, max := range []int64{1000, 4095, 4096, 4097, 250_001} {
			g, k := stuckLaunch(t, sms)
			_, err := g.Launch(k, LaunchOpts{MaxCycles: max})
			want := fmt.Sprintf("sim: watchdog expired at %d cycles (0/1 blocks done)", max)
			if err == nil || err.Error() != want {
				t.Errorf("%d SMs, MaxCycles %d: err = %v, want %q", sms, max, err, want)
			}
		}
	}
}

// cancelAtCheck is a context whose Err reports cancellation from its
// n-th call onward, making the cancellation point deterministic: the
// launch calls Err once before cycle 0 and then at every
// cancelCheckInterval boundary.
type cancelAtCheck struct {
	context.Context
	n, calls int
}

func (c *cancelAtCheck) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelWhileAsleep: cancellation is still observed at the first
// check boundary after it fires, while every SM sleeps between loads.
func TestCancelWhileAsleep(t *testing.T) {
	for _, n := range []int{2, 3, 7} {
		g, k := stuckLaunch(t, 4)
		ctx := &cancelAtCheck{Context: context.Background(), n: n}
		_, err := g.LaunchContext(ctx, k, LaunchOpts{})
		at := int64(n-1) * cancelCheckInterval
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), fmt.Sprintf("cancelled at cycle %d ", at)) {
			t.Errorf("cancel at check %d: err = %v, want cancellation at cycle %d", n, err, at)
		}
	}
}

// TestSleepCreditsEveryCycle: SMs that sleep (idle between global
// loads, or without a block at all) and clock jumps still account for
// every SM-cycle exactly once: issue + idle + DMR-stall cycles equal
// NumSMs x the launch's cycle count, and the idle counter equals
// Stats.IdleIssueSlots.
func TestSleepCreditsEveryCycle(t *testing.T) {
	for _, dmr := range []arch.DMRMode{arch.DMROff, arch.DMRFull} {
		cfg := arch.WarpedDMRConfig()
		cfg.DMR = dmr
		cfg.NumSMs = 6
		cfg.ReplayQSize = 0 // same-type replays stall the issue stage
		// A ReplayQ of 0 leaves nothing to drain after the last EXIT, so
		// Stats.Cycles is the cycle the launch loop ended at.
		const n = 300 // 5 blocks of 64 on 6 SMs: one SM never gets work
		g, k := launch(t, cfg, vecAddSrc, func(g *GPU, k *Kernel) {
			a := g.Mem.MustAlloc(4 * n)
			b := g.Mem.MustAlloc(4 * n)
			out := g.Mem.MustAlloc(4 * n)
			k.GridX, k.BlockX = 5, 64
			k.Params = mem.NewParams(n, a, b, out)
		})
		reg := metrics.New()
		st, err := g.Launch(k, LaunchOpts{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		c := func(name string) int64 { return reg.Counter(name).Value() }
		issue, idle, stall := c("sim.issue_cycles_total"), c("sim.idle_issue_cycles_total"), c("sim.dmr_stall_cycles_total")
		if dmr == arch.DMRFull && stall == 0 {
			t.Errorf("%v: no DMR stall cycles; the case must cover them", dmr)
		}
		if got, want := issue+idle+stall, int64(cfg.NumSMs)*st.Cycles; got != want {
			t.Errorf("%v: issue %d + idle %d + stall %d = %d SM-cycles, want %d x %d = %d",
				dmr, issue, idle, stall, got, cfg.NumSMs, st.Cycles, want)
		}
		if idle != st.IdleIssueSlots {
			t.Errorf("%v: sim.idle_issue_cycles_total = %d, Stats.IdleIssueSlots = %d", dmr, idle, st.IdleIssueSlots)
		}
		if idle < 10*issue {
			t.Errorf("%v: idle %d vs issue %d cycles: the launch is not idle-heavy", dmr, idle, issue)
		}
	}
}
