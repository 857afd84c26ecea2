package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"warped/internal/arch"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/metrics"
	"warped/internal/sim"
	"warped/internal/stats"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned_stats.json")

const pinnedPath = "testdata/pinned_stats.json"

// pinCase is one cell of the pinned-stats matrix: a machine
// configuration plus the launch options the cycle loop must honour.
type pinCase struct {
	name     string
	cfg      func() arch.Config
	trackRAW bool
	fault    bool // inject one transient SP upset at a fixed cycle
}

func dmrCfg(mut func(*arch.Config)) func() arch.Config {
	return func() arch.Config {
		c := arch.WarpedDMRConfig()
		if mut != nil {
			mut(&c)
		}
		return c
	}
}

// pinCases covers every cycle-loop edge the simulated statistics depend
// on: each DMR mode, ReplayQ sizes 0/1/10, a queue left non-empty with
// idle draining off, sampling epochs, two GTO schedulers, caches on and
// off, DRAM bandwidth starved into token debt, an injected transient
// fault and RAW-distance tracking.
var pinCases = []pinCase{
	{name: "nodmr", cfg: arch.PaperConfig},
	{name: "intra", cfg: dmrCfg(func(c *arch.Config) { c.DMR = arch.DMRIntra })},
	{name: "inter", cfg: dmrCfg(func(c *arch.Config) { c.DMR = arch.DMRInter })},
	{name: "full", cfg: dmrCfg(nil)},
	{name: "temporal-all", cfg: dmrCfg(func(c *arch.Config) { c.DMR = arch.DMRTemporalAll })},
	{name: "full-q0", cfg: dmrCfg(func(c *arch.Config) { c.ReplayQSize = 0 })},
	{name: "full-q1", cfg: dmrCfg(func(c *arch.Config) { c.ReplayQSize = 1 })},
	{name: "full-noidledrain", cfg: dmrCfg(func(c *arch.Config) { c.IdleDrain = false })},
	{name: "full-sampled", cfg: dmrCfg(func(c *arch.Config) { c.SamplePeriod, c.SampleOn = 1000, 250 })},
	{name: "gto2-nodmr", cfg: func() arch.Config {
		c := arch.PaperConfig()
		c.NumSchedulers, c.Sched = 2, arch.SchedGTO
		return c
	}},
	{name: "full-nocache", cfg: dmrCfg(func(c *arch.Config) { c.ModelCaches = false })},
	{name: "full-dram-starved", cfg: dmrCfg(func(c *arch.Config) { c.DRAMSegPerCyc = 0.05 })},
	{name: "full-fault", cfg: dmrCfg(nil), fault: true},
	{name: "full-trackraw", cfg: dmrCfg(nil), trackRAW: true},
}

// pinKernels mixes idle-heavy workloads (most SM-cycles issue nothing)
// with issue-dense ones.
var pinKernels = []string{"RadixSort", "BFS", "Nqueen", "MatrixMul", "Reduce"}

// pinnedDigest runs one benchmark under one case and fingerprints
// everything the simulation observably produces: the full merged
// statistics (RAW histogram included), the validation outcome, the
// fault injector's activation record and every metric instrument.
func pinnedDigest(t *testing.T, kernel string, pc pinCase) string {
	t.Helper()
	b, err := ByName(kernel)
	if err != nil {
		b, err = ExtraByName(kernel)
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.New(pc.cfg(), b.GPUMemBytes())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	opts := sim.LaunchOpts{TrackRAW: pc.trackRAW, Metrics: reg}
	var inj *fault.Injector
	if pc.fault {
		inj = fault.NewInjector(&fault.Fault{
			Kind: fault.Transient, SM: -1, Lane: 5, Unit: isa.UnitSP, Bit: 3, Cycle: 2000,
		})
		opts.Fault = inj
	}
	run, err := b.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	// Execute without its final validation: an injected fault may
	// legitimately corrupt the output, and the outcome is pinned too.
	total := &stats.Stats{}
	for i, step := range run.Steps {
		st, err := g.Launch(step.Kernel, opts)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		total.MergeSerial(st)
		if step.Host != nil {
			if err := step.Host(g); err != nil {
				t.Fatalf("host step %d: %v", i, err)
			}
		}
	}
	check := "ok"
	if run.Check != nil {
		if err := run.Check(g); err != nil {
			if !pc.fault {
				t.Fatalf("validation: %v", err)
			}
			check = err.Error()
		}
	}
	raw := total.RAW
	total.RAW = nil // printed by value below, not by address
	text := fmt.Sprintf("%+v\nraw=%+v\ncheck=%s\n", *total, raw, check)
	if inj != nil {
		if inj.Activations == 0 {
			t.Errorf("%s/%s: the injected fault never activated", kernel, pc.name)
		}
		text += fmt.Sprintf("fault: activations=%d first=%d\n", inj.Activations, inj.FirstActivation)
	}
	text += reg.Snapshot().String()
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:16])
}

// TestPinnedStats pins the simulator's complete observable output over
// a configuration matrix. Any cycle-loop optimisation must leave every
// digest unchanged; a change that alters simulated behaviour on purpose
// regenerates the file with `go test ./internal/kernels -run
// TestPinnedStats -update`.
func TestPinnedStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got := map[string]string{}
	for _, k := range pinKernels {
		for _, pc := range pinCases {
			got[k+"/"+pc.name] = pinnedDigest(t, k, pc)
		}
	}
	if *updatePinned {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinnedPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), pinnedPath)
		return
	}
	data, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the matrix has %d", pinnedPath, len(want), len(got))
	}
	for key, d := range got {
		if want[key] != d {
			t.Errorf("%s: digest %s, pinned %s", key, d, want[key])
		}
	}
}
