package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warped/internal/arch"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/simt"
)

// genProgram builds a random straight-line data-flow program over 8
// registers, ending with stores of every register to global memory.
// Operand values stay in ranges where float operations cannot produce
// NaN-vs-NaN comparison surprises.
func genProgram(rng *rand.Rand, outBase uint32) *isa.Program {
	ops := []isa.Opcode{
		isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpIMIN, isa.OpIMAX,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSHL, isa.OpSHR, isa.OpSAR,
		isa.OpMOV, isa.OpNOT,
	}
	p := &isa.Program{Name: "rand", NumRegs: 12, Labels: map[string]int{}}
	add := func(in isa.Instr) {
		in.Pred = isa.AlwaysPred()
		p.Instrs = append(p.Instrs, in)
	}
	// Seed registers with lane-dependent values.
	add(isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}})
	for r := isa.Reg(1); r < 8; r++ {
		add(isa.Instr{Op: isa.OpIMAD, Dst: r,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(uint32(rng.Intn(97) + 1)), isa.ImmOp(rng.Uint32() % 1000)}})
	}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		in := isa.Instr{Op: op, Dst: isa.Reg(rng.Intn(8))}
		for s := 0; s < op.NumSrc(); s++ {
			if rng.Intn(4) == 0 {
				in.Src[s] = isa.ImmOp(rng.Uint32() % 4096)
			} else {
				in.Src[s] = isa.RegOp(isa.Reg(rng.Intn(8)))
			}
		}
		add(in)
	}
	// Store every register: out[tid*8 + r] = rN.
	add(isa.Instr{Op: isa.OpSHL, Dst: 9, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX), isa.ImmOp(5)}})
	add(isa.Instr{Op: isa.OpIADD, Dst: 9, Src: [3]isa.Operand{isa.RegOp(9), isa.ImmOp(outBase)}})
	for r := isa.Reg(0); r < 8; r++ {
		add(isa.Instr{Op: isa.OpST, Space: isa.SpaceGlobal, Off: int32(4 * r),
			Src: [3]isa.Operand{isa.RegOp(9), isa.RegOp(r)}})
	}
	add(isa.Instr{Op: isa.OpEXIT})
	return p
}

// refWalk functionally executes prog on one 32-wide warp (tid = lane)
// over the given memories — the architectural reference the timed
// pipeline is compared against.
func refWalk(prog *isa.Program, mm exec.Mem) error {
	c, err := exec.Compile(prog)
	if err != nil {
		return err
	}
	m := exec.NewMachine(c, exec.Opts{SegBytes: 128, Banks: 32})
	r := exec.NewRegs(prog.NumRegs)
	var tid [32]uint32
	for i := range tid {
		tid[i] = uint32(i)
	}
	r.SetSpecial(isa.RegTIDX, tid)
	ws := &exec.WarpState{Ctl: simt.NewWarp(0, 0, 32), Regs: r, Mem: mm}
	var rec exec.Record
	for steps := 0; !ws.Ctl.Done(); steps++ {
		if steps > 200000 {
			return fmt.Errorf("reference walk did not terminate")
		}
		if err := m.Step(ws, &rec); err != nil {
			return err
		}
	}
	return nil
}

// TestDifferentialPipelineVsFunctional: the full timing pipeline
// (scheduler, scoreboard, units, DMR engine) must produce exactly the
// architectural results of a plain functional walk of the same program.
func TestDifferentialPipelineVsFunctional(t *testing.T) {
	f := func(seed int64, withDMR bool) bool {
		rng := rand.New(rand.NewSource(seed))
		outBase := uint32(4096)
		prog := genProgram(rng, outBase)

		// Reference: direct functional execution, no timing.
		refCtx := exec.Mem{
			Global: mem.NewGlobal(1 << 16),
			Shared: mem.NewShared(64),
			Params: mem.NewParams(),
		}
		if err := refWalk(prog, refCtx); err != nil {
			t.Log(err)
			return false
		}

		// Full pipeline.
		cfg := arch.PaperConfig()
		cfg.NumSMs = 2
		if withDMR {
			cfg.DMR = arch.DMRFull
			cfg.Mapping = arch.MapClusterRR
		}
		g, err := New(cfg, 1<<16)
		if err != nil {
			t.Log(err)
			return false
		}
		k := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1}
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Log(err)
			return false
		}
		if withDMR && st.FaultsDetected != 0 {
			t.Logf("seed %d: fault-free run flagged errors", seed)
			return false
		}

		want, err := refCtx.Global.ReadWords(outBase, 32*8)
		if err != nil {
			t.Log(err)
			return false
		}
		got, err := g.Mem.ReadWords(outBase, 32*8)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				t.Logf("seed %d dmr=%v: word %d = %#x, want %#x", seed, withDMR, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialFloatOps does the same with float arithmetic in safe
// ranges (no NaNs/infs), confirming bit-identical float behaviour
// between pipeline and functional runs.
func TestDifferentialFloatOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		outBase := uint32(4096)
		p := &isa.Program{Name: "fr", NumRegs: 8, Labels: map[string]int{}}
		add := func(in isa.Instr) {
			in.Pred = isa.AlwaysPred()
			p.Instrs = append(p.Instrs, in)
		}
		add(isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}})
		add(isa.Instr{Op: isa.OpI2F, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0)}})
		fops := []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpFMIN, isa.OpFMAX, isa.OpFSQRT, isa.OpFRCP}
		for i := 0; i < 12; i++ {
			op := fops[rng.Intn(len(fops))]
			in := isa.Instr{Op: op, Dst: isa.Reg(1 + rng.Intn(4))}
			for s := 0; s < op.NumSrc(); s++ {
				if rng.Intn(3) == 0 {
					in.Src[s] = isa.ImmOp(math.Float32bits(rng.Float32() + 0.5))
				} else {
					in.Src[s] = isa.RegOp(isa.Reg(1 + rng.Intn(4)))
				}
			}
			add(in)
		}
		add(isa.Instr{Op: isa.OpSHL, Dst: 6, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX), isa.ImmOp(4)}})
		add(isa.Instr{Op: isa.OpIADD, Dst: 6, Src: [3]isa.Operand{isa.RegOp(6), isa.ImmOp(outBase)}})
		for r := isa.Reg(1); r < 5; r++ {
			add(isa.Instr{Op: isa.OpST, Space: isa.SpaceGlobal, Off: int32(4 * (r - 1)),
				Src: [3]isa.Operand{isa.RegOp(6), isa.RegOp(r)}})
		}
		add(isa.Instr{Op: isa.OpEXIT})

		refCtx := exec.Mem{Global: mem.NewGlobal(1 << 16), Shared: mem.NewShared(64), Params: mem.NewParams()}
		if err := refWalk(p, refCtx); err != nil {
			t.Fatal(err)
		}
		g, err := New(arch.WarpedDMRConfig(), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Launch(&Kernel{Prog: p, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1}, LaunchOpts{}); err != nil {
			t.Fatal(err)
		}
		want, _ := refCtx.Global.ReadWords(outBase, 32*4)
		got, _ := g.Mem.ReadWords(outBase, 32*4)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d word %d: %#x != %#x", trial, i, got[i], want[i])
			}
		}
	}
}
