// Package exec implements the functional semantics of the ISA: pure
// per-lane ALU/SFU evaluation plus the architectural Machine that
// applies pre-decoded instructions to a warp's register file, memory,
// and control state.
//
// Programs are lowered once per launch by Compile into a flat stream of
// Decoded instructions (per-op step functions and warp kernels, packed
// operand windows); the timing simulator (internal/sim) builds one
// Machine per SM and calls Machine.Step at issue time
// ("execute-at-issue"). Warped-DMR (internal/core) re-runs the same warp
// kernels via Record.Recompute to redundantly re-execute lanes and
// compare results.
package exec

import (
	"warped/internal/isa"
	"warped/internal/simt"
)

// numSpecials is how many special read-only registers exist
// (RegTIDX..RegWARPID).
const numSpecials = int(isa.RegSpecialEnd-isa.SpecialBase) - 1

// Regs is the architectural register state of one warp: a view into a
// struct-of-arrays register slab (32 contiguous lane values per
// register) plus predicate masks. Views come from a RegFile (one slab
// per block) or NewRegs (a standalone single-warp slab).
type Regs struct {
	gpr  []uint32 // [reg*32+lane], numRegs*32 entries
	spec []uint32 // [special*32+lane], numSpecials*32 entries
	Pred [isa.NumPreds]simt.Mask
}

// RegFile is the register backing store of one thread block: a single
// struct-of-arrays slab indexed [warp][reg][lane], carved into per-warp
// views. One allocation per block instead of one per warp per register.
type RegFile struct {
	warps []Regs
}

// NewRegFile allocates register state for numWarps warps of numRegs
// general registers each.
func NewRegFile(numWarps, numRegs int) *RegFile {
	gpr := make([]uint32, numWarps*numRegs*32)
	spec := make([]uint32, numWarps*numSpecials*32)
	f := &RegFile{warps: make([]Regs, numWarps)}
	for i := range f.warps {
		f.warps[i] = Regs{
			gpr:  gpr[i*numRegs*32 : (i+1)*numRegs*32 : (i+1)*numRegs*32],
			spec: spec[i*numSpecials*32 : (i+1)*numSpecials*32 : (i+1)*numSpecials*32],
		}
	}
	return f
}

// Warp returns the register view of warp i.
func (f *RegFile) Warp(i int) *Regs { return &f.warps[i] }

// NewRegs allocates standalone register state for one warp with numRegs
// general registers (tests and single-warp tools; the simulator uses
// NewRegFile).
func NewRegs(numRegs int) *Regs {
	return NewRegFile(1, numRegs).Warp(0)
}

// gprLanes returns the 32-lane window of one general register.
func (r *Regs) gprLanes(reg isa.Reg) []uint32 {
	off := int(reg) * 32
	return r.gpr[off : off+32 : off+32]
}

// SetSpecial fills one special register's per-lane values.
func (r *Regs) SetSpecial(reg isa.Reg, vals [32]uint32) {
	copy(r.spec[(int(reg-isa.SpecialBase)-1)*32:], vals[:])
}

// Read returns the value of reg in the given lane slot.
func (r *Regs) Read(reg isa.Reg, lane int) uint32 {
	if reg.IsSpecial() {
		return r.spec[(int(reg-isa.SpecialBase)-1)*32+lane]
	}
	return r.gpr[int(reg)*32+lane]
}

// Set writes a general register in the given lane slot.
func (r *Regs) Set(reg isa.Reg, lane int, v uint32) {
	r.gpr[int(reg)*32+lane] = v
}

// Operand resolves an operand for a lane.
func (r *Regs) Operand(o isa.Operand, lane int) uint32 {
	if o.IsImm {
		return o.Imm
	}
	return r.Read(o.Reg, lane)
}

// Perturb is a fault-injection hook: given the thread slot (logical
// lane within the warp), the unit class, and the golden value (result
// for SP/SFU ops, effective address for LD/ST), it returns the possibly
// corrupted value. A nil Perturb means fault-free execution.
type Perturb func(thread int, unit isa.UnitClass, golden uint32) uint32

// Record describes everything the timing model and the DMR layer need
// to know about one executed warp-instruction. PC and Executing double
// as the issue-time facts selective-protection policies decide from
// (core.PolicyFacts): both are computed during the step regardless, so
// arming a policy adds no work here.
//
// Machine.Step fills a caller-supplied Record. A data, SETP or memory
// step writes all 32 lanes of each SrcVals slot its opcode reads, but
// only the Executing lanes of SrcVals and Vals are meaningful: the
// others hold whatever the warp kernel or an earlier step left there.
type Record struct {
	PC        int
	Instr     *isa.Instr
	Dec       *Decoded // pre-decoded form; nil for hand-built records
	Unit      isa.UnitClass
	Active    simt.Mask // path mask before guarding
	Executing simt.Mask // lanes that actually executed (guard applied)

	// Per-lane operand values captured at issue, for DMR re-execution.
	SrcVals [3][32]uint32

	// Result values per lane (SP/SFU data ops; 0/1 for SETP), or
	// effective addresses (LD/ST/ATOM). Valid only for Executing lanes.
	Vals [32]uint32

	// Memory behaviour (LD/ST/ATOM only; the addresses are in Vals).
	// SegBases[:NumSegs] are the distinct coalesced segment base
	// addresses of a global or local access, in order of first use by
	// ascending lane: one memory transaction each. NumSegs is 0 for
	// shared and param accesses.
	IsMem    bool
	SegBases [32]uint32
	NumSegs  int
	BankSer  int // shared-memory serialization factor
	IsStore  bool

	// Control behaviour.
	IsBranch  bool
	Taken     simt.Mask
	Divergent bool
	IsBarrier bool
	IsExit    bool

	// Registers written (for scoreboard release) and read.
	DstValid bool
	Dst      isa.Reg
}

// Recompute re-executes the recorded instruction from its captured
// source operands into out — the DMR layer's redundant execution. It
// runs the warp kernel Step ran, once for the whole warp; only the
// Executing lanes of out are meaningful. Records built by hand (Dec nil)
// look the kernel up from Instr. ok is false for opcodes that are not
// lane-computable (control and predicate-file ops).
func (r *Record) Recompute(out *[32]uint32) (ok bool) {
	var k warpKernel
	if r.Dec != nil {
		k = r.Dec.kernel
	} else {
		k = kernelFor(r.Instr)
	}
	if k == nil {
		return false
	}
	k(out, &r.SrcVals[0], &r.SrcVals[1], &r.SrcVals[2], r.Executing)
	return true
}

// SrcRegs returns the general registers the recorded instruction reads,
// without allocating when the record carries its pre-decoded form.
func (r *Record) SrcRegs() []isa.Reg {
	if r.Dec != nil {
		return r.Dec.ReadRegs[:r.Dec.NumReads]
	}
	return r.Instr.Reads()
}

// guardMask returns the lanes of active that pass the guard predicate.
func guardMask(r *Regs, pred isa.PredRef, active simt.Mask) simt.Mask {
	if pred.None {
		return active
	}
	p := r.Pred[pred.Index]
	if pred.Negate {
		p = ^p
	}
	return active & p
}

// Compute evaluates one lane of a data-processing opcode from raw
// source values, through the same warp kernel Machine.Step runs. For
// LD/ST/ATOM the value is the effective address (what DMR verifies for
// memory ops). ok is false for opcodes that are not lane-computable
// (control, barriers, predicate-file ops).
func Compute(in *isa.Instr, a, b, c uint32) (val uint32, ok bool) {
	k := kernelFor(in)
	if k == nil {
		return 0, false
	}
	var v, sa, sb, sc [32]uint32
	sa[0], sb[0], sc[0] = a, b, c
	k(&v, &sa, &sb, &sc, 1)
	return v[0], true
}
