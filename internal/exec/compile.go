package exec

import (
	"fmt"

	"warped/internal/isa"
)

// stepFn applies one pre-decoded instruction to a warp. Each opcode
// family binds its own step function at compile time, so the per-cycle
// path is a single indirect call instead of a switch walk.
type stepFn func(m *Machine, d *Decoded, ws *WarpState, rec *Record) error

// srcOp is a pre-resolved source operand: either an immediate or a
// 32-lane window into the register slab, computed once at compile time.
const (
	srcImm uint8 = iota
	srcGPR
	srcSpec
)

type srcOp struct {
	lanesOff int32  // element offset of lane 0 within the gpr/spec slab
	imm      uint32 // immediate value (kind == srcImm)
	kind     uint8
}

// gather fills out with the operand's 32 lane values: a copy of its
// register window, or the immediate broadcast to every lane.
func (s *srcOp) gather(r *Regs, out *[32]uint32) {
	switch s.kind {
	case srcGPR:
		*out = [32]uint32(r.gpr[s.lanesOff : s.lanesOff+32])
	case srcSpec:
		*out = [32]uint32(r.spec[s.lanesOff : s.lanesOff+32])
	default:
		for i := range out {
			out[i] = s.imm
		}
	}
}

// Decoded is one pre-decoded instruction: every per-cycle decision the
// interpreter used to re-derive from isa.Instr — unit class, operand
// windows, guard, warp kernel and step function — resolved once at
// launch.
type Decoded struct {
	Instr *isa.Instr // source instruction (diagnostics, disassembly)

	kernel warpKernel // lane semantics; nil for control/pred ops
	step   stepFn

	Op    isa.Opcode
	Unit  isa.UnitClass
	Space isa.MemSpace

	NSrc     uint8
	NumReads uint8 // general registers read (ReadRegs[:NumReads])
	HasDst   bool
	selp     bool // fold the selector predicate into source slot 2

	Dst      isa.Reg
	ReadRegs [3]isa.Reg

	Pred               isa.PredRef
	PDst, PSrcA, PSrcB uint8

	src [3]srcOp
	Off int32

	Target, Reconv int
}

// Compiled is a program lowered to its flat pre-decoded stream. Compile
// once per launch; the stream is immutable and safe to share across SMs.
type Compiled struct {
	prog *isa.Program
	code []Decoded
}

// Prog returns the source program.
func (c *Compiled) Prog() *isa.Program { return c.prog }

// Code returns the pre-decoded instruction stream, indexed by PC.
func (c *Compiled) Code() []Decoded { return c.code }

// Compile lowers a program into its pre-decoded form: per-op step
// functions and warp kernels, packed operand windows, and precomputed
// read sets.
func Compile(p *isa.Program) (*Compiled, error) {
	code := make([]Decoded, len(p.Instrs))
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		d := &code[pc]
		d.Instr = in
		d.Op = in.Op
		d.Unit = in.Op.Unit()
		d.Space = in.Space
		d.NSrc = uint8(in.Op.NumSrc())
		d.HasDst = in.Op.HasDst()
		d.selp = in.Op == isa.OpSELP
		d.Dst = in.Dst
		d.Pred = in.Pred
		d.PDst, d.PSrcA, d.PSrcB = in.PDst, in.PSrcA, in.PSrcB
		d.Off = in.Off
		d.Target, d.Reconv = in.Target, in.Reconv
		for i := 0; i < int(d.NSrc); i++ {
			o := in.Src[i]
			switch {
			case o.IsImm:
				d.src[i] = srcOp{kind: srcImm, imm: o.Imm}
			case o.Reg.IsSpecial():
				d.src[i] = srcOp{kind: srcSpec, lanesOff: (int32(o.Reg-isa.SpecialBase) - 1) * 32}
			default:
				d.src[i] = srcOp{kind: srcGPR, lanesOff: int32(o.Reg) * 32}
				d.ReadRegs[d.NumReads] = o.Reg
				d.NumReads++
			}
		}
		if int(in.Op) < len(ops) {
			d.step = ops[in.Op].step
		}
		// An opcode without a step has no execution semantics: fail at
		// launch, not mid-kernel.
		if d.step == nil {
			return nil, fmt.Errorf("exec: compile %s pc %d: no execution binding for op %s", p.Name, pc, in.Op)
		}
		d.kernel = kernelFor(in)
	}
	return &Compiled{prog: p, code: code}, nil
}
