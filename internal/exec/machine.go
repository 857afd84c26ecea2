package exec

import (
	"fmt"
	"math/bits"

	"warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/simt"
)

// Mem bundles the memories visible to a warp. Shadow marks a redundant
// R-Thread block: it executes with full timing but its global-memory
// side effects are suppressed (the real duplicate block writes to a
// disjoint shadow buffer; suppression models that without requiring
// every kernel to carry one).
type Mem struct {
	Global *mem.Global
	Shared *mem.Shared
	Params *mem.Params
	Shadow bool
}

// WarpState is everything Machine.Step needs about one warp: its SIMT
// control state, its register-file view, and the memories it sees.
type WarpState struct {
	Ctl  *simt.Warp
	Regs *Regs
	Mem  Mem
}

// Opts configures a Machine at construction.
type Opts struct {
	SegBytes int // coalescing segment size (global/local accesses)
	Banks    int // shared-memory bank count

	// Metrics, when non-nil, receives branch-behaviour and bank-conflict
	// counts as instructions execute (see internal/metrics.ForExec).
	// Nil costs one branch per executed branch/shared access.
	Metrics *metrics.Exec

	// Perturb is the fault-injection hook; nil means fault-free.
	Perturb Perturb
}

// Machine executes a pre-decoded program. It replaces the old
// Step(ctx, prog, w, r, segBytes, banks, perturb) parameter list: build
// one Machine per SM per launch, then call Step once per issued warp
// instruction.
//
// Step writes into a Record the caller supplies, so whoever keeps a
// record past the next Step owns its storage: the simulator steps into
// a slot of the DMR engine's slab (core.Engine.Next), and the engine
// buffers that slot without copying it.
type Machine struct {
	code     []Decoded
	prog     *isa.Program
	segBytes int
	banks    int
	met      *metrics.Exec
	perturb  Perturb
}

// NewMachine builds a Machine over a compiled program.
func NewMachine(c *Compiled, o Opts) *Machine {
	return &Machine{
		code:     c.code,
		prog:     c.prog,
		segBytes: o.SegBytes,
		banks:    o.Banks,
		met:      o.Metrics,
		perturb:  o.Perturb,
	}
}

// Code returns the pre-decoded stream, indexed by PC.
func (m *Machine) Code() []Decoded { return m.code }

// SetMetrics replaces the pre-resolved exec instrument set.
func (m *Machine) SetMetrics(em *metrics.Exec) { m.met = em }

// Step executes the instruction at the warp's current PC, updates warp
// control state, registers, and memory, and describes the execution in
// rec.
func (m *Machine) Step(ws *WarpState, rec *Record) error {
	pc := ws.Ctl.PC()
	if pc < 0 || pc >= len(m.code) {
		return fmt.Errorf("exec: PC %d out of range in kernel %s", pc, m.prog.Name)
	}
	d := &m.code[pc]
	// Reset the scalar fields only: the per-lane arrays (SrcVals, Vals)
	// are always read under the Executing mask and SegBases under
	// NumSegs, so stale lanes from whatever rec held before are never
	// observed.
	rec.PC = pc
	rec.Instr = d.Instr
	rec.Dec = d
	rec.Unit = d.Unit
	rec.Active = ws.Ctl.ActiveMask()
	rec.Executing = 0
	rec.IsMem = false
	rec.NumSegs = 0
	rec.BankSer = 0
	rec.IsStore = false
	rec.IsBranch = false
	rec.Taken = 0
	rec.Divergent = false
	rec.IsBarrier = false
	rec.IsExit = false
	rec.DstValid = false
	rec.Dst = 0
	return d.step(m, d, ws, rec)
}

// Branches use the guard as the branch condition.
func stepBranch(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	rec.IsBranch = true
	active := rec.Active
	taken := guardMask(ws.Regs, d.Pred, active)
	rec.Taken = taken
	rec.Executing = active
	switch {
	case taken == active: // uniform taken (or unconditional)
		ws.Ctl.Jump(d.Target)
		if m.met != nil {
			m.met.UniformBranches.Inc()
		}
	case taken == 0: // uniform not-taken
		ws.Ctl.Advance()
		if m.met != nil {
			m.met.UniformBranches.Inc()
		}
	default:
		rec.Divergent = true
		if err := ws.Ctl.Diverge(taken, active, d.Target, rec.PC+1, d.Reconv); err != nil {
			return fmt.Errorf("exec: kernel %s pc %d: %w", m.prog.Name, rec.PC, err)
		}
		if m.met != nil {
			m.met.DivergentBranches.Inc()
		}
	}
	return nil
}

func stepExit(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	executing := guardMask(ws.Regs, d.Pred, rec.Active)
	rec.Executing = executing
	rec.IsExit = true
	if executing != 0 {
		ws.Ctl.Exit(executing)
	} else {
		ws.Ctl.Advance()
	}
	return nil
}

func stepBarrier(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	executing := guardMask(ws.Regs, d.Pred, rec.Active)
	rec.Executing = executing
	rec.IsBarrier = true
	ws.Ctl.AtBarrier = true
	ws.Ctl.Advance()
	return nil
}

func stepNOP(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	rec.Executing = guardMask(ws.Regs, d.Pred, rec.Active)
	ws.Ctl.Advance()
	return nil
}

func stepPredLogic(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	var res simt.Mask
	if d.Op == isa.OpPAND {
		res = r.Pred[d.PSrcA] & r.Pred[d.PSrcB]
	} else {
		res = ^r.Pred[d.PSrcA]
	}
	r.Pred[d.PDst] = (r.Pred[d.PDst] &^ executing) | (res & executing)
	ws.Ctl.Advance()
	return nil
}

func stepSETP(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	d.src[0].gather(r, &rec.SrcVals[0])
	d.src[1].gather(r, &rec.SrcVals[1])
	d.kernel(&rec.Vals, &rec.SrcVals[0], &rec.SrcVals[1], &rec.SrcVals[2], executing)
	m.perturbLanes(d.Unit, executing, &rec.Vals)
	var pres simt.Mask
	for lane, v := range rec.Vals {
		if v != 0 {
			pres |= 1 << uint(lane)
		}
	}
	r.Pred[d.PDst] = (r.Pred[d.PDst] &^ executing) | (pres & executing)
	ws.Ctl.Advance()
	return nil
}

// stepData executes SP/SFU data ops (including SELP) as one warp
// operation: gather the sources, run the warp kernel, perturb the
// executing lanes, write them back to the destination window.
func stepData(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	for i := 0; i < int(d.NSrc); i++ {
		d.src[i].gather(r, &rec.SrcVals[i])
	}
	if d.selp {
		// Fold the selector predicate into source slot 2 as 0/1 lane
		// values, so the kernel stays a pure, replayable function.
		sel := uint32(r.Pred[d.PSrcA])
		for lane := range rec.SrcVals[2] {
			rec.SrcVals[2][lane] = sel >> uint(lane) & 1
		}
	}
	d.kernel(&rec.Vals, &rec.SrcVals[0], &rec.SrcVals[1], &rec.SrcVals[2], executing)
	m.perturbLanes(d.Unit, executing, &rec.Vals)
	if d.HasDst {
		rec.DstValid, rec.Dst = true, d.Dst
		dst := r.gprLanes(d.Dst)
		if executing == fullWarp {
			copy(dst, rec.Vals[:])
		} else {
			for rem := uint32(executing); rem != 0; rem &= rem - 1 {
				lane := bits.TrailingZeros32(rem)
				dst[lane] = rec.Vals[lane]
			}
		}
	}
	ws.Ctl.Advance()
	return nil
}

// fullWarp is the executing mask of a 32-lane warp with no lane masked.
const fullWarp = ^simt.Mask(0)

// perturbLanes passes each executing lane's value through the fault
// hook, once per lane in ascending lane order: fault campaigns and the
// FaultsActivated count depend on that call sequence.
func (m *Machine) perturbLanes(unit isa.UnitClass, executing simt.Mask, v *[32]uint32) {
	if m.perturb == nil {
		return
	}
	for rem := uint32(executing); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		v[lane] = m.perturb(lane, unit, v[lane])
	}
}

func stepMemOp(m *Machine, d *Decoded, ws *WarpState, rec *Record) error {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	rec.IsMem = true
	rec.IsStore = d.Op == isa.OpST

	d.src[0].gather(r, &rec.SrcVals[0])
	if d.NSrc > 1 {
		d.src[1].gather(r, &rec.SrcVals[1])
	}
	d.kernel(&rec.Vals, &rec.SrcVals[0], &rec.SrcVals[1], &rec.SrcVals[2], executing)
	m.perturbLanes(isa.UnitLDST, executing, &rec.Vals)

	switch d.Space {
	case isa.SpaceShared:
		rec.BankSer = mem.BankConflictDegree(rec.Vals[:], uint32(executing), m.banks)
		if m.met != nil && rec.BankSer > 1 {
			m.met.SharedBankExtra.Add(int64(rec.BankSer - 1))
		}
	case isa.SpaceGlobal, isa.SpaceLocal:
		rec.NumSegs = mem.CoalesceSegments(rec.Vals[:], uint32(executing), m.segBytes, &rec.SegBases)
		rec.BankSer = 1
	case isa.SpaceParam:
		rec.BankSer = 1
	}

	var lane int
	var err error
	switch d.Op {
	case isa.OpLD:
		rec.DstValid, rec.Dst = true, d.Dst
		lane, err = ws.loadLanes(d.Space, &rec.Vals, executing, r.gprLanes(d.Dst))
	case isa.OpST:
		// A redundant block's global stores go to its shadow buffer.
		if !ws.Mem.Shadow || d.Space == isa.SpaceShared {
			lane, err = ws.storeLanes(d.Space, &rec.Vals, &rec.SrcVals[1], executing)
		}
	case isa.OpATOM:
		rec.DstValid, rec.Dst = true, d.Dst
		lane, err = ws.atomicLanes(d.Space, &rec.Vals, &rec.SrcVals[1], executing, r.gprLanes(d.Dst))
	default:
		return fmt.Errorf("exec: pc %d: %s is not a memory op", rec.PC, d.Op)
	}
	if err != nil {
		return fmt.Errorf("exec: pc %d lane %d: %w", rec.PC, lane, err)
	}
	ws.Ctl.Advance()
	return nil
}

// The lane helpers below apply one memory op to the lanes in executing,
// in ascending lane order, switching on the memory space once per
// instruction. Each access keeps its own bounds and alignment check; on
// the first failing lane they stop and return that lane and its error.

func (ws *WarpState) loadLanes(space isa.MemSpace, addrs *[32]uint32, executing simt.Mask, dst []uint32) (int, error) {
	rem := uint32(executing)
	switch space {
	case isa.SpaceShared:
		sh := ws.Mem.Shared
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			v, err := sh.Load32(addrs[lane])
			if err != nil {
				return lane, err
			}
			dst[lane] = v
		}
	case isa.SpaceParam:
		pm := ws.Mem.Params
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			v, err := pm.Load32(addrs[lane])
			if err != nil {
				return lane, err
			}
			dst[lane] = v
		}
	case isa.SpaceGlobal, isa.SpaceLocal:
		g := ws.Mem.Global
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			v, err := g.Load32(addrs[lane])
			if err != nil {
				return lane, err
			}
			dst[lane] = v
		}
	default:
		if rem != 0 {
			return bits.TrailingZeros32(rem), fmt.Errorf("exec: load from unknown space %d", space)
		}
	}
	return 0, nil
}

func (ws *WarpState) storeLanes(space isa.MemSpace, addrs, vals *[32]uint32, executing simt.Mask) (int, error) {
	rem := uint32(executing)
	switch space {
	case isa.SpaceShared:
		sh := ws.Mem.Shared
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			if err := sh.Store32(addrs[lane], vals[lane]); err != nil {
				return lane, err
			}
		}
	case isa.SpaceGlobal, isa.SpaceLocal:
		g := ws.Mem.Global
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			if err := g.Store32(addrs[lane], vals[lane]); err != nil {
				return lane, err
			}
		}
	case isa.SpaceParam:
		if rem != 0 {
			return bits.TrailingZeros32(rem), fmt.Errorf("exec: store to param space")
		}
	default:
		if rem != 0 {
			return bits.TrailingZeros32(rem), fmt.Errorf("exec: store to unknown space %d", space)
		}
	}
	return 0, nil
}

// atomicLanes adds vals into memory lane by lane and writes each lane's
// old value to dst. A shadow block's global atomics only read.
func (ws *WarpState) atomicLanes(space isa.MemSpace, addrs, vals *[32]uint32, executing simt.Mask, dst []uint32) (int, error) {
	rem := uint32(executing)
	switch {
	case space == isa.SpaceShared:
		sh := ws.Mem.Shared
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			old, err := sh.AtomicAdd32(addrs[lane], vals[lane])
			if err != nil {
				return lane, err
			}
			dst[lane] = old
		}
	case ws.Mem.Shadow:
		return ws.loadLanes(isa.SpaceGlobal, addrs, executing, dst)
	default:
		g := ws.Mem.Global
		for ; rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			old, err := g.AtomicAdd32(addrs[lane], vals[lane])
			if err != nil {
				return lane, err
			}
			dst[lane] = old
		}
	}
	return 0, nil
}
