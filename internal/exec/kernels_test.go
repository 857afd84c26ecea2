package exec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"warped/internal/isa"
	"warped/internal/simt"
)

// refLane is the scalar oracle for the warp kernels: each opcode's lane
// semantics written out one lane at a time, independently of kernels.go.
// ok is false for opcodes with no lane-computable result.
func refLane(in *isa.Instr, a, b, c uint32) (uint32, bool) {
	f := math.Float32frombits
	fbits := math.Float32bits
	sfu := func(g func(float64) float64) uint32 { return fbits(float32(g(float64(f(a))))) }
	switch in.Op {
	case isa.OpMOV:
		return a, true
	case isa.OpIADD:
		return a + b, true
	case isa.OpISUB:
		return a - b, true
	case isa.OpIMUL:
		return uint32(int32(a) * int32(b)), true
	case isa.OpIMAD:
		return uint32(int32(a)*int32(b)) + c, true
	case isa.OpIMIN:
		if int32(a) < int32(b) {
			return a, true
		}
		return b, true
	case isa.OpIMAX:
		if int32(a) > int32(b) {
			return a, true
		}
		return b, true
	case isa.OpAND:
		return a & b, true
	case isa.OpOR:
		return a | b, true
	case isa.OpXOR:
		return a ^ b, true
	case isa.OpNOT:
		return ^a, true
	case isa.OpSHL:
		return a << (b % 32), true
	case isa.OpSHR:
		return a >> (b % 32), true
	case isa.OpSAR:
		return uint32(int32(a) >> (b % 32)), true
	case isa.OpFADD:
		return fbits(f(a) + f(b)), true
	case isa.OpFSUB:
		return fbits(f(a) - f(b)), true
	case isa.OpFMUL:
		return fbits(f(a) * f(b)), true
	case isa.OpFFMA:
		return fbits(float32(float64(f(a))*float64(f(b)) + float64(f(c)))), true
	case isa.OpFMIN:
		return fbits(float32(math.Min(float64(f(a)), float64(f(b))))), true
	case isa.OpFMAX:
		return fbits(float32(math.Max(float64(f(a)), float64(f(b))))), true
	case isa.OpFNEG:
		return a ^ 1<<31, true
	case isa.OpFABS:
		return a &^ (1 << 31), true
	case isa.OpI2F:
		return fbits(float32(int32(a))), true
	case isa.OpF2I:
		v := float64(f(a))
		switch {
		case math.IsNaN(v):
			return 0, true
		case v >= 1<<31:
			return math.MaxInt32, true
		case v <= -1<<31:
			return 1 << 31, true
		}
		return uint32(int32(v)), true
	case isa.OpSELP:
		if c != 0 {
			return a, true
		}
		return b, true
	case isa.OpFDIV:
		return fbits(f(a) / f(b)), true
	case isa.OpFSIN:
		return sfu(math.Sin), true
	case isa.OpFCOS:
		return sfu(math.Cos), true
	case isa.OpFSQRT:
		return sfu(math.Sqrt), true
	case isa.OpFRSQRT:
		return sfu(func(x float64) float64 { return 1 / math.Sqrt(x) }), true
	case isa.OpFRCP:
		return sfu(func(x float64) float64 { return 1 / x }), true
	case isa.OpFEX2:
		return sfu(math.Exp2), true
	case isa.OpFLG2:
		return sfu(math.Log2), true
	case isa.OpSETP:
		return refSETP(in.Cmp, in.CmpTy, a, b), true
	case isa.OpLD, isa.OpST, isa.OpATOM:
		return a + uint32(in.Off), true
	case isa.OpNOP, isa.OpPAND, isa.OpPNOT, isa.OpBRA, isa.OpBAR, isa.OpEXIT:
		return 0, false
	}
	return 0, false
}

// refSETP compares in 64-bit integers or float64, so it shares no code
// path with the kernels' 32-bit comparisons.
func refSETP(cmp isa.CmpOp, ty isa.CmpType, a, b uint32) uint32 {
	var x, y float64
	switch ty {
	case isa.CmpS32:
		x, y = float64(int32(a)), float64(int32(b))
	case isa.CmpU32:
		x, y = float64(a), float64(b)
	case isa.CmpF32:
		x, y = float64(math.Float32frombits(a)), float64(math.Float32frombits(b))
		if math.IsNaN(x) || math.IsNaN(y) {
			if cmp == isa.CmpNE {
				return 1
			}
			return 0
		}
	}
	var t bool
	switch cmp {
	case isa.CmpEQ:
		t = x == y
	case isa.CmpNE:
		t = x != y
	case isa.CmpLT:
		t = x < y
	case isa.CmpLE:
		t = x <= y
	case isa.CmpGT:
		t = x > y
	case isa.CmpGE:
		t = x >= y
	}
	if t {
		return 1
	}
	return 0
}

// kernelSpecials are the operand values the oracle must agree on:
// NaNs, infinities, signed zeros, denormals, float extremes, INT32_MIN
// and neighbours, and shift counts at and beyond 32.
var kernelSpecials = []uint32{
	0, 1, 2, 31, 32, 33, 63, 64, 0xFF, 0xFFFFFFFF,
	0x80000000, 0x80000001, 0x7FFFFFFF, // INT32_MIN (also -0.0), neighbours
	0x7FC00000, 0xFFC00000, 0x7F800001, // quiet NaNs, signalling NaN
	0x7F800000, 0xFF800000, // +Inf, -Inf
	0x00000001, 0x807FFFFF, 0x00400000, // denormals
	0x00800000, 0x7F7FFFFF, 0xFF7FFFFF, // min normal, ±max float
	0x3F800000, 0xBF800000, 0x3F000000, 0x4F000000, 0xCF000000, // ±1, 0.5, ±2^31
}

// kernelInstrs returns every instruction shape with a warp kernel:
// each data opcode, SETP under every comparison and type, and each
// memory opcode under a few offsets.
func kernelInstrs() []isa.Instr {
	var out []isa.Instr
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		switch {
		case op == isa.OpSETP:
			for cmp := isa.CmpEQ; cmp <= isa.CmpGE; cmp++ {
				for _, ty := range []isa.CmpType{isa.CmpS32, isa.CmpU32, isa.CmpF32} {
					out = append(out, isa.Instr{Op: op, Cmp: cmp, CmpTy: ty})
				}
			}
		case op == isa.OpLD || op == isa.OpST || op == isa.OpATOM:
			for _, off := range []int32{0, 16, -4, math.MaxInt32} {
				out = append(out, isa.Instr{Op: op, Off: off})
			}
		default:
			out = append(out, isa.Instr{Op: op})
		}
	}
	return out
}

// checkKernel runs in's warp kernel over sources a, b, c under mask and
// reports every executing lane that disagrees with the scalar oracle.
func checkKernel(t *testing.T, in *isa.Instr, a, b, c *[32]uint32, mask simt.Mask) {
	t.Helper()
	k := kernelFor(in)
	_, computable := refLane(in, 0, 0, 0)
	if (k != nil) != computable {
		t.Fatalf("%v: kernel present = %v, oracle computable = %v", in.Op, k != nil, computable)
	}
	if k == nil {
		return
	}
	var v [32]uint32
	k(&v, a, b, c, mask)
	for rem := uint32(mask); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		want, _ := refLane(in, a[lane], b[lane], c[lane])
		if v[lane] != want {
			t.Fatalf("%s lane %d (%#x, %#x, %#x) under mask %08x = %#x, oracle %#x",
				in, lane, a[lane], b[lane], c[lane], uint32(mask), v[lane], want)
		}
	}
}

// TestWarpKernelsMatchScalarOracle checks every warp kernel lane by
// lane against refLane, over the special values and random words, under
// random executing masks (full, empty and partial among them).
func TestWarpKernelsMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() uint32 {
		if rng.Intn(2) == 0 {
			return kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
		return rng.Uint32()
	}
	masks := []simt.Mask{^simt.Mask(0), 0, 1, 0x80000000, 0xAAAAAAAA}
	for _, in := range kernelInstrs() {
		in := in
		for trial := 0; trial < 40; trial++ {
			var a, b, c [32]uint32
			for i := range a {
				a[i], b[i], c[i] = pick(), pick(), pick()
			}
			mask := simt.Mask(rng.Uint32())
			if trial < len(masks) {
				mask = masks[trial]
			}
			checkKernel(t, &in, &a, &b, &c, mask)
		}
		// Every pair of specials, lane by lane.
		for i, x := range kernelSpecials {
			var a, b, c [32]uint32
			for lane := range a {
				y := kernelSpecials[(i+lane)%len(kernelSpecials)]
				a[lane], b[lane], c[lane] = x, y, kernelSpecials[lane%len(kernelSpecials)]
			}
			checkKernel(t, &in, &a, &b, &c, ^simt.Mask(0))
		}
	}
}

// TestComputeMatchesOracle pins the single-lane Compute entry point to
// the same oracle.
func TestComputeMatchesOracle(t *testing.T) {
	for _, in := range kernelInstrs() {
		in := in
		for _, x := range kernelSpecials {
			got, ok := Compute(&in, x, x^0x80000000, 1)
			want, wantOK := refLane(&in, x, x^0x80000000, 1)
			if ok != wantOK || got != want {
				t.Fatalf("Compute(%s, %#x) = %#x,%v; oracle %#x,%v", &in, x, got, ok, want, wantOK)
			}
		}
	}
}

// FuzzWarpKernels checks a warp kernel against the scalar oracle for a
// fuzzed opcode shape, 3x32 source words and executing mask.
func FuzzWarpKernels(f *testing.F) {
	f.Add(uint8(isa.OpFFMA), uint8(0), make([]byte, 3*32*4), uint32(0xFFFFFFFF))
	f.Add(uint8(isa.OpSETP), uint8(17), []byte{0, 0, 0xC0, 0x7F, 1, 0, 0, 0}, uint32(0x0000FFFF))
	f.Add(uint8(isa.OpSHL), uint8(0), []byte{1, 0, 0, 0, 33, 0, 0, 0}, uint32(1))
	f.Fuzz(func(t *testing.T, op, variant uint8, src []byte, mask uint32) {
		shapes := kernelInstrs()
		var in isa.Instr
		found := false
		for _, s := range shapes {
			if s.Op == isa.Opcode(op) {
				in, found = s, true
				break
			}
		}
		if !found {
			return
		}
		switch in.Op {
		case isa.OpSETP:
			in.Cmp, in.CmpTy = isa.CmpOp(variant%6), isa.CmpType(variant/6%3)
		case isa.OpLD, isa.OpST, isa.OpATOM:
			in.Off = int32(variant) - 128
		}
		var srcs [3][32]uint32
		for i := 0; i+4 <= len(src) && i < 3*32*4; i += 4 {
			srcs[i/128][i/4%32] = binary.LittleEndian.Uint32(src[i:])
		}
		checkKernel(t, &in, &srcs[0], &srcs[1], &srcs[2], simt.Mask(mask))
	})
}

// TestPerturbOncePerExecutingLane pins the fault hook's call sequence:
// exactly one call per executing lane, in ascending lane order, with
// the instruction's unit, for data, SETP and memory ops. Fault
// campaigns replay that sequence, so reordering it would move faults.
func TestPerturbOncePerExecutingLane(t *testing.T) {
	executing := simt.Mask(0xAAAAAAAA) // the odd lanes: guard p1
	cases := []struct {
		name string
		in   isa.Instr
		unit isa.UnitClass
	}{
		{"data", stepCases[1].in, isa.UnitSP},
		{"sfu", isa.Instr{Op: isa.OpFSIN, Dst: 8, Pred: isa.PredRef{Index: 1},
			Src: [3]isa.Operand{isa.RegOp(1)}}, isa.UnitSFU},
		{"setp", isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 2, Pred: isa.PredRef{Index: 1},
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(16)}}, isa.UnitSP},
		{"ld", isa.Instr{Op: isa.OpLD, Space: isa.SpaceGlobal, Dst: 7, Pred: isa.PredRef{Index: 1},
			Src: [3]isa.Operand{isa.RegOp(3)}}, isa.UnitLDST},
		{"st", isa.Instr{Op: isa.OpST, Space: isa.SpaceShared, Pred: isa.PredRef{Index: 1},
			Src: [3]isa.Operand{isa.RegOp(2), isa.RegOp(0)}}, isa.UnitLDST},
	}
	for _, c := range cases {
		m, ws := newStepCase(t, stepCase{c.name, c.in})
		var calls []int
		m.perturb = func(thread int, unit isa.UnitClass, golden uint32) uint32 {
			if unit != c.unit {
				t.Errorf("%s: perturb saw unit %v, want %v", c.name, unit, c.unit)
			}
			calls = append(calls, thread)
			return golden
		}
		var rec Record
		if err := m.Step(ws, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Executing != executing {
			t.Fatalf("%s: executing %08x, want %08x", c.name, uint32(rec.Executing), uint32(executing))
		}
		var want []int
		for lane := 1; lane < 32; lane += 2 {
			want = append(want, lane)
		}
		if len(calls) != len(want) {
			t.Fatalf("%s: %d perturb calls, want %d", c.name, len(calls), len(want))
		}
		for i := range want {
			if calls[i] != want[i] {
				t.Fatalf("%s: perturb call %d on lane %d, want %d (calls %v)", c.name, i, calls[i], want[i], calls)
			}
		}
	}
}
