package exec

import (
	"testing"

	"warped/internal/isa"
	"warped/internal/simt"
)

// stepCase is one pinned warp instruction for the Step benchmark, run
// as PC 0 of a one-instruction program. newStepCase fills the registers
// the cases read: r0 = lane id, r1 = per-lane float, r2 = per-lane
// shared address, r3 = per-lane global address; p1 holds the odd lanes.
type stepCase struct {
	name string
	in   isa.Instr
}

var stepCases = []stepCase{
	{"ffma-full", isa.Instr{Op: isa.OpFFMA, Dst: 4,
		Src: [3]isa.Operand{isa.RegOp(1), isa.RegOp(1), isa.RegOp(1)}}},
	{"iadd-divergent", isa.Instr{Op: isa.OpIADD, Dst: 5, Pred: isa.PredRef{Index: 1},
		Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(7)}}},
	{"setp", isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 2,
		Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(16)}}},
	{"ld-shared-2way", isa.Instr{Op: isa.OpLD, Space: isa.SpaceShared, Dst: 6,
		Src: [3]isa.Operand{isa.RegOp(2)}}},
	{"ld-global-coalesced", isa.Instr{Op: isa.OpLD, Space: isa.SpaceGlobal, Dst: 7,
		Src: [3]isa.Operand{isa.RegOp(3)}}},
}

// newStepCase builds a machine and a full 32-lane warp positioned at
// the case's instruction.
func newStepCase(tb testing.TB, c stepCase) (*Machine, *WarpState) {
	tb.Helper()
	mm := newCtx()
	base := mm.Global.MustAlloc(4 * 32)
	m, ws := newTestMachine(tb, mustProg(tb, c.in), 32, mm, nil)
	for lane := 0; lane < 32; lane++ {
		ws.Regs.Set(0, lane, uint32(lane))
		ws.Regs.Set(1, lane, fb(float32(lane)+0.5))
		ws.Regs.Set(2, lane, uint32(8*lane)) // stride 2 words: 2-way bank conflict
		ws.Regs.Set(3, lane, base+uint32(4*lane))
	}
	ws.Regs.Pred[1] = simt.Mask(0xAAAAAAAA)
	return m, ws
}

// BenchmarkMachineStep times one Machine.Step per pinned instruction
// shape. Each iteration rewinds the warp to PC 0, so only the measured
// instruction executes.
func BenchmarkMachineStep(b *testing.B) {
	for _, c := range stepCases {
		b.Run(c.name, func(b *testing.B) {
			m, ws := newStepCase(b, c)
			rec := new(Record)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Ctl.Jump(0)
				if err := m.Step(ws, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStepCasesZeroAllocs pins every benchmarked instruction shape at
// zero allocations per Step.
func TestStepCasesZeroAllocs(t *testing.T) {
	for _, c := range stepCases {
		m, ws := newStepCase(t, c)
		rec := new(Record)
		avg := testing.AllocsPerRun(200, func() {
			ws.Ctl.Jump(0)
			if err := m.Step(ws, rec); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: Machine.Step allocates %.2f objects per instruction, want 0", c.name, avg)
		}
	}
}
