package core

import (
	"testing"

	"warped/internal/arch"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/simt"
	"warped/internal/stats"
)

// TestIntraWarpPairsPhysicalLanes: intra-warp DMR pairs physical lanes,
// so the engine maps the executing thread slots through the configured
// thread->lane mapping (the identity under linear mapping). With every
// redundant result corrupted, each reported pairing names the active
// lane its thread maps to and an idle verifier lane.
func TestIntraWarpPairsPhysicalLanes(t *testing.T) {
	cases := []struct {
		mapping arch.MappingPolicy
		threads simt.Mask
		phys    simt.Mask
	}{
		{arch.MapLinear, 0b0101, 0b0101},
		// Threads 0..3 go to clusters 0..3, slot 0: lanes 0,4,8,12.
		{arch.MapClusterRR, 0x0000000F, 1 | 1<<4 | 1<<8 | 1<<12},
		// Threads 0..15: slots 0 and 1 of all eight clusters.
		{arch.MapClusterRR, 0x0000FFFF, 0x33333333},
	}
	flip := func(_ int, _ isa.UnitClass, golden uint32) uint32 { return golden ^ 1 }
	for _, c := range cases {
		cfg := arch.WarpedDMRConfig()
		cfg.Mapping = c.mapping
		var orig simt.Mask
		onError := func(ev ErrorEvent) {
			if want := cfg.LaneForThread(ev.Thread); ev.OrigLane != want {
				t.Errorf("%v: thread %d reported on lane %d, want %d", c.mapping, ev.Thread, ev.OrigLane, want)
			}
			if c.phys.Has(ev.VerifLane) {
				t.Errorf("%v: verifier lane %d is executing", c.mapping, ev.VerifLane)
			}
			orig |= 1 << uint(ev.OrigLane)
		}
		e := NewEngine(cfg, 0, &stats.Stats{}, flip, onError)
		e.Issue(IssueInfo{Rec: partialRec(isa.OpIADD, c.threads), WarpGID: 1})
		if orig != c.phys {
			t.Errorf("%v: threads %08x verified on lanes %08x, want %08x", c.mapping, c.threads, orig, c.phys)
		}
	}
}

// stepInto stands in for Machine.Step: it overwrites every field of the
// engine's next slot with a full-warp IADD at pc whose lane values are
// derived from seed (Vals = a+b, so a replay agrees), and returns it.
func stepInto(e *Engine, pc int, seed uint32, in *isa.Instr) *exec.Record {
	rec := e.Next()
	*rec = exec.Record{
		PC: pc, Instr: in, Unit: isa.UnitSP,
		Active: simt.FullMask(32), Executing: simt.FullMask(32),
		DstValid: true, Dst: in.Dst,
	}
	for l := 0; l < 32; l++ {
		a, b := seed+uint32(l), seed*7+uint32(l)
		rec.SrcVals[0][l], rec.SrcVals[1][l] = a, b
		rec.Vals[l] = a + b
	}
	return rec
}

// checkSlots fails if the next Step destination aliases a record the
// engine still holds.
func checkSlots(t *testing.T, e *Engine) {
	t.Helper()
	if e.pending.Rec != nil && e.pending.Rec == e.Next() {
		t.Fatal("next slot aliases the pending record")
	}
	for _, ent := range e.q {
		if ent.Rec == e.Next() {
			t.Fatal("next slot aliases a queued record")
		}
	}
}

// TestBufferedRecordOwnership: a record the engine holds, pending or
// queued, keeps its own values while later issues execute into fresh
// slab slots. Verifying it later reports no spurious mismatch, and a
// mismatch injected into it is reported with its own PC and warp.
func TestBufferedRecordOwnership(t *testing.T) {
	in := &isa.Instr{Op: isa.OpIADD, Dst: 9, Src: [3]isa.Operand{isa.RegOp(1), isa.RegOp(2)}, Pred: isa.AlwaysPred()}
	for _, held := range []struct {
		name string
		at   int // position of the held instruction in the issue stream
	}{
		{"queued", 0},
		{"pending", 7},
	} {
		for _, inject := range []bool{false, true} {
			cfg := arch.WarpedDMRConfig()
			cfg.IdleDrain = false // keep the held record buffered until Drain
			var events []ErrorEvent
			e := NewEngine(cfg, 0, &stats.Stats{}, nil, func(ev ErrorEvent) { events = append(events, ev) })
			const heldPC, heldWarp = 40, 3
			for i := 0; i <= 7; i++ {
				pc, warp := 10+i, 5+i
				if i == held.at {
					pc, warp = heldPC, heldWarp
				}
				rec := stepInto(e, pc, uint32(100*i+1), in)
				if i == held.at && inject {
					rec.Vals[6]++
				}
				e.Issue(IssueInfo{Rec: rec, WarpGID: warp, Cycle: int64(i)})
				checkSlots(t, e)
			}
			if held.at == 0 && e.QueueLen() == 0 {
				t.Fatalf("%s: nothing was queued", held.name)
			}
			e.Drain(100)
			switch {
			case !inject && len(events) != 0:
				t.Errorf("%s: spurious mismatch %+v", held.name, events[0])
			case inject && len(events) != 1:
				t.Errorf("%s: %d mismatches reported, want 1", held.name, len(events))
			case inject && (events[0].PC != heldPC || events[0].WarpGID != heldWarp || events[0].Thread != 6):
				t.Errorf("%s: mismatch reported at pc %d warp %d thread %d, want pc %d warp %d thread 6",
					held.name, events[0].PC, events[0].WarpGID, events[0].Thread, heldPC, heldWarp)
			}
		}
	}
}

// BenchmarkEngineIssue measures the DMR engine's issue path on its own,
// the way the simulator drives it: each issue executes into the slot
// Next hands out. One op is one pass of a pinned stream of 20 full-warp
// issues on a 10-entry ReplayQ — a same-type SP burst that fills the
// queue and overflows it, an SFU pair the SP ops after it swap with, and
// a consumer of a buffered producer's register (RAW flush) — plus the
// idle cycles that drain what the pass leaves buffered, so every pass
// starts empty.
func BenchmarkEngineIssue(b *testing.B) {
	r := func(n isa.Reg) isa.Operand { return isa.RegOp(n) }
	prog := &isa.Program{Name: "engine-stream", NumRegs: 32}
	add := func(in isa.Instr) { in.Pred = isa.AlwaysPred(); prog.Instrs = append(prog.Instrs, in) }
	// pc 0..11: same-type SP burst (enqueue, then overflow stalls).
	for i := 0; i < 12; i++ {
		add(isa.Instr{Op: isa.OpIADD, Dst: isa.Reg(8 + i%8), Src: [3]isa.Operand{r(1), r(2)}})
	}
	// pc 12..13: SFU pair (the second enqueues the first).
	add(isa.Instr{Op: isa.OpFSIN, Dst: 20, Src: [3]isa.Operand{r(3)}})
	add(isa.Instr{Op: isa.OpFCOS, Dst: 21, Src: [3]isa.Operand{r(3)}})
	// pc 14..15: SP pair (same type: swaps with a buffered SFU entry).
	add(isa.Instr{Op: isa.OpIADD, Dst: 22, Src: [3]isa.Operand{r(1), r(2)}})
	add(isa.Instr{Op: isa.OpIADD, Dst: 23, Src: [3]isa.Operand{r(1), r(2)}})
	// pc 16: reads r8, written by a buffered producer of the same warp.
	add(isa.Instr{Op: isa.OpIADD, Dst: 24, Src: [3]isa.Operand{r(8), r(2)}})
	// pc 17..19: more SP work to resolve against.
	for i := 0; i < 3; i++ {
		add(isa.Instr{Op: isa.OpIMUL, Dst: isa.Reg(25 + i), Src: [3]isa.Operand{r(1), r(2)}})
	}
	comp, err := exec.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	code := comp.Code()

	cfg := arch.WarpedDMRConfig()
	cfg.ReplayQSize = 10
	st := &stats.Stats{}
	e := NewEngine(cfg, 0, st, nil, nil)
	now := int64(0)
	pass := func() {
		for pc := range code {
			d := &code[pc]
			rec := e.Next()
			rec.PC, rec.Instr, rec.Dec, rec.Unit = pc, d.Instr, d, d.Unit
			rec.Active, rec.Executing = simt.FullMask(32), simt.FullMask(32)
			rec.DstValid, rec.Dst = d.HasDst, d.Dst
			e.Issue(IssueInfo{Rec: rec, WarpGID: 0, Cycle: now})
			now++
		}
		for !e.Quiescent() {
			e.IdleCycle(now)
			now++
		}
	}
	pass()
	for name, n := range map[string]int64{
		"enqueue": st.ReplayEnq, "overflow stall": st.StallReplayQFull,
		"RAW flush": st.StallRAWUnverif, "idle drain": st.ReplayIdleDrain,
	} {
		if n == 0 {
			b.Fatalf("stream never exercises %s", name)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
