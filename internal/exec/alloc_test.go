package exec

import (
	"testing"

	"warped/internal/isa"
)

// TestMachineStepZeroAllocs pins the steady-state execute path at zero
// allocations per instruction: data ops, SETP, loads, stores, and a
// uniform branch, driven through an endless loop so the warp state
// never has to be rebuilt.
func TestMachineStepZeroAllocs(t *testing.T) {
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpSHL, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(2)}},
		isa.Instr{Op: isa.OpIADD, Dst: 2, Src: [3]isa.Operand{isa.RegOp(1), isa.ImmOp(256)}},
		isa.Instr{Op: isa.OpST, Space: isa.SpaceGlobal, Src: [3]isa.Operand{isa.RegOp(2), isa.RegOp(0)}},
		isa.Instr{Op: isa.OpLD, Space: isa.SpaceGlobal, Dst: 3, Src: [3]isa.Operand{isa.RegOp(2)}},
		isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 1,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(16)}},
		isa.Instr{Op: isa.OpFFMA, Dst: 4, Src: [3]isa.Operand{isa.RegOp(3), isa.RegOp(3), isa.RegOp(3)}},
		isa.Instr{Op: isa.OpBRA, Target: 1}, // loop forever
		isa.Instr{Op: isa.OpEXIT},
	)
	m, ws := newTestMachine(t, p, 32, newCtx(), nil)
	rec := new(Record)
	for i := 0; i < 64; i++ { // reach steady state
		if err := m.Step(ws, rec); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := m.Step(ws, rec); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Machine.Step allocates %.2f objects per instruction, want 0", avg)
	}
}
