package exec

import (
	"math"
	"math/bits"

	"warped/internal/isa"
	"warped/internal/simt"
)

// warpKernel evaluates one opcode over a whole warp: v[i] is lane i's
// result from sources a[i], b[i], c[i]; sources the opcode does not read
// are ignored. Cheap kernels compute all 32 lanes; the transcendental
// SFU kernels compute only the lanes in m. Callers read only the lanes
// in m, so a kernel must be total over whatever the other lanes hold.
//
// The kernels are the one implementation of the ISA's lane semantics:
// Machine.Step runs a kernel once per issued instruction, and the DMR
// replay (Record.Recompute) runs the same kernel again on the captured
// sources, so the original and redundant executions cannot drift.
type warpKernel func(v, a, b, c *[32]uint32, m simt.Mask)

// opSem binds one opcode's semantics: the step function that applies it
// to a warp, and its lane semantics. kernel serves opcodes whose lane
// semantics are fixed; bind builds the kernel of opcodes that depend on
// instruction fields (SETP's comparison, a memory op's address offset).
// Control and predicate-file ops have neither: they have no
// lane-computable result for DMR to replay.
type opSem struct {
	step   stepFn
	kernel warpKernel
	bind   func(in *isa.Instr) warpKernel
}

// kernelFor returns the warp kernel of in, or nil when the opcode has no
// lane-computable result.
func kernelFor(in *isa.Instr) warpKernel {
	if int(in.Op) >= len(ops) {
		return nil
	}
	s := &ops[in.Op]
	if s.bind != nil {
		return s.bind(in)
	}
	return s.kernel
}

// ops is the opcode table: the only list of opcodes in this package.
// Compile binds each Decoded entry from it, and Compute and
// Record.Recompute look kernels up in it.
var ops = [isa.NumOpcodes]opSem{
	isa.OpNOP:  {step: stepNOP},
	isa.OpBRA:  {step: stepBranch},
	isa.OpEXIT: {step: stepExit},
	isa.OpBAR:  {step: stepBarrier},
	isa.OpPAND: {step: stepPredLogic},
	isa.OpPNOT: {step: stepPredLogic},
	isa.OpSETP: {step: stepSETP, bind: bindSETP},
	isa.OpLD:   {step: stepMemOp, bind: bindAddr},
	isa.OpST:   {step: stepMemOp, bind: bindAddr},
	isa.OpATOM: {step: stepMemOp, bind: bindAddr},

	isa.OpMOV: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, _ simt.Mask) { *v = *a }},
	isa.OpIADD: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] + b[i]
		}
	}},
	isa.OpISUB: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] - b[i]
		}
	}},
	isa.OpIMUL: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = uint32(int32(a[i]) * int32(b[i]))
		}
	}},
	isa.OpIMAD: {step: stepData, kernel: func(v, a, b, c *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = uint32(int32(a[i])*int32(b[i])) + c[i]
		}
	}},
	isa.OpIMIN: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = uint32(min(int32(a[i]), int32(b[i])))
		}
	}},
	isa.OpIMAX: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = uint32(max(int32(a[i]), int32(b[i])))
		}
	}},
	isa.OpAND: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] & b[i]
		}
	}},
	isa.OpOR: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] | b[i]
		}
	}},
	isa.OpXOR: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] ^ b[i]
		}
	}},
	isa.OpNOT: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = ^a[i]
		}
	}},
	isa.OpSHL: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] << (b[i] & 31)
		}
	}},
	isa.OpSHR: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] >> (b[i] & 31)
		}
	}},
	isa.OpSAR: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = uint32(int32(a[i]) >> (b[i] & 31))
		}
	}},
	isa.OpFADD: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = math.Float32bits(math.Float32frombits(a[i]) + math.Float32frombits(b[i]))
		}
	}},
	isa.OpFSUB: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = math.Float32bits(math.Float32frombits(a[i]) - math.Float32frombits(b[i]))
		}
	}},
	isa.OpFMUL: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = math.Float32bits(math.Float32frombits(a[i]) * math.Float32frombits(b[i]))
		}
	}},
	isa.OpFFMA: {step: stepData, kernel: func(v, a, b, c *[32]uint32, _ simt.Mask) {
		// Fused multiply-add: single rounding, like hardware FFMA.
		f := math.Float32frombits
		for i := range v {
			v[i] = math.Float32bits(float32(float64(f(a[i]))*float64(f(b[i])) + float64(f(c[i]))))
		}
	}},
	isa.OpFMIN: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			x, y := float64(math.Float32frombits(a[i])), float64(math.Float32frombits(b[i]))
			v[i] = math.Float32bits(float32(math.Min(x, y)))
		}
	}},
	isa.OpFMAX: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			x, y := float64(math.Float32frombits(a[i])), float64(math.Float32frombits(b[i]))
			v[i] = math.Float32bits(float32(math.Max(x, y)))
		}
	}},
	isa.OpFNEG: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] ^ 0x80000000
		}
	}},
	isa.OpFABS: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] &^ 0x80000000
		}
	}},
	isa.OpI2F: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = math.Float32bits(float32(int32(a[i])))
		}
	}},
	isa.OpF2I: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = f2i(math.Float32frombits(a[i]))
		}
	}},
	// SELP's selector predicate arrives as 0/1 lane values in c (see
	// stepData), so the kernel stays a pure function of its sources.
	isa.OpSELP: {step: stepData, kernel: func(v, a, b, c *[32]uint32, _ simt.Mask) {
		for i := range v {
			if c[i] != 0 {
				v[i] = a[i]
			} else {
				v[i] = b[i]
			}
		}
	}},
	isa.OpFDIV: {step: stepData, kernel: func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = math.Float32bits(math.Float32frombits(a[i]) / math.Float32frombits(b[i]))
		}
	}},
	isa.OpFSIN: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, math.Sin)
	}},
	isa.OpFCOS: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, math.Cos)
	}},
	isa.OpFSQRT: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, math.Sqrt)
	}},
	isa.OpFRSQRT: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, func(x float64) float64 { return 1 / math.Sqrt(x) })
	}},
	isa.OpFRCP: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, func(x float64) float64 { return 1 / x })
	}},
	isa.OpFEX2: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, math.Exp2)
	}},
	isa.OpFLG2: {step: stepData, kernel: func(v, a, _, _ *[32]uint32, m simt.Mask) {
		sfuLanes(v, a, m, math.Log2)
	}},
}

// sfuLanes evaluates a float32 transcendental, computed in float64 and
// rounded once, on the lanes in m only: each costs far more than the
// walk over the mask.
func sfuLanes(v, a *[32]uint32, m simt.Mask, f func(float64) float64) {
	for rem := uint32(m); rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros32(rem)
		v[i] = math.Float32bits(float32(f(float64(math.Float32frombits(a[i])))))
	}
}

// f2i converts float32 to int32 by truncation, saturating out-of-range
// values and mapping NaN to 0.
func f2i(v float32) uint32 {
	switch {
	case v != v: // NaN
		return 0
	case v >= math.MaxInt32:
		return uint32(math.MaxInt32)
	case v <= math.MinInt32:
		return 0x80000000 // int32 min
	}
	return uint32(int32(v))
}

// bindAddr builds a memory op's effective-address kernel, which is what
// DMR verifies for LD/ST/ATOM.
func bindAddr(in *isa.Instr) warpKernel {
	off := uint32(in.Off)
	return func(v, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range v {
			v[i] = a[i] + off
		}
	}
}

// bindSETP builds a SETP kernel, which evaluates the comparison to 0 or
// 1 per lane. A float comparison with a NaN operand is true only for ne,
// as Go's own float comparisons (IEEE unordered) give it.
func bindSETP(in *isa.Instr) warpKernel {
	cmp, ty := in.Cmp, in.CmpTy
	return func(v, a, b, _ *[32]uint32, _ simt.Mask) {
		switch ty {
		case isa.CmpS32:
			for i := range v {
				v[i] = b2u(cmpOrd(cmp, int32(a[i]), int32(b[i])))
			}
		case isa.CmpU32:
			for i := range v {
				v[i] = b2u(cmpOrd(cmp, a[i], b[i]))
			}
		case isa.CmpF32:
			for i := range v {
				v[i] = b2u(cmpOrd(cmp, math.Float32frombits(a[i]), math.Float32frombits(b[i])))
			}
		default:
			*v = [32]uint32{}
		}
	}
}

func cmpOrd[T int32 | uint32 | float32](c isa.CmpOp, a, b T) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func b2u(t bool) uint32 {
	if t {
		return 1
	}
	return 0
}
