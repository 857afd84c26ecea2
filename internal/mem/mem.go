// Package mem models the GPGPU memory system: a flat global memory
// with a bump allocator (standing in for cudaMalloc), per-block shared
// memory, a read-only kernel parameter space, and the two access-cost
// calculators the timing model needs — global coalescing into 128-byte
// segments and shared-memory bank-conflict counting.
//
// Warped-DMR assumes memory is ECC-protected (as on Fermi), so the
// simulator treats loaded data as always correct and DMR only verifies
// address computation; nothing in this package injects faults.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Global is the device global memory: a flat byte-addressable space
// shared by all SMs, plus a bump allocator.
type Global struct {
	data []byte
	brk  uint32
}

// NewGlobal creates a global memory of the given size in bytes.
// Address 0 is kept unallocated so 0 can serve as a null pointer.
func NewGlobal(size int) *Global {
	if size < 512 {
		size = 512
	}
	return &Global{data: make([]byte, size), brk: 256}
}

// Size returns the total size in bytes.
func (g *Global) Size() int { return len(g.data) }

// Alloc reserves n bytes and returns the device address. Allocations
// are 256-byte aligned, like cudaMalloc, so unit-stride warp accesses
// from element 0 coalesce into whole segments.
func (g *Global) Alloc(n int) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("mem: negative allocation %d", n)
	}
	aligned := (uint32(n) + 255) &^ 255
	if uint64(g.brk)+uint64(aligned) > uint64(len(g.data)) {
		return 0, fmt.Errorf("mem: out of global memory (want %d, used %d of %d)", n, g.brk, len(g.data))
	}
	addr := g.brk
	g.brk += aligned
	return addr, nil
}

// MustAlloc is Alloc that panics on exhaustion; for test and kernel setup.
func (g *Global) MustAlloc(n int) uint32 {
	a, err := g.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Load32 reads a 32-bit little-endian word. Out-of-range or misaligned
// accesses return an error (the simulator raises it as a kernel fault).
func (g *Global) Load32(addr uint32) (uint32, error) {
	if addr%4 == 0 && int(addr) <= len(g.data)-4 {
		return binary.LittleEndian.Uint32(g.data[addr:]), nil
	}
	return 0, g.fault(addr)
}

// Store32 writes a 32-bit little-endian word.
func (g *Global) Store32(addr, val uint32) error {
	if addr%4 == 0 && int(addr) <= len(g.data)-4 {
		binary.LittleEndian.PutUint32(g.data[addr:], val)
		return nil
	}
	return g.fault(addr)
}

// AtomicAdd32 adds val to the word at addr and returns the old value.
// The simulator serializes all lanes, so no locking is needed.
func (g *Global) AtomicAdd32(addr, val uint32) (uint32, error) {
	old, err := g.Load32(addr)
	if err != nil {
		return 0, err
	}
	if err := g.Store32(addr, old+val); err != nil {
		return 0, err
	}
	return old, nil
}

// fault describes a misaligned or out-of-range access. Load32 and
// Store32 call it only off their in-range path, which is then one test
// and no call: a warp access runs that path once per lane.
func (g *Global) fault(addr uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned 32-bit access at 0x%x", addr)
	}
	return fmt.Errorf("mem: global access out of range at 0x%x (size 0x%x)", addr, len(g.data))
}

// --- host-side convenience accessors (cudaMemcpy stand-ins) ---

// WriteWords copies 32-bit words from the host slice into device memory.
func (g *Global) WriteWords(addr uint32, words []uint32) error {
	for i, w := range words {
		if err := g.Store32(addr+uint32(4*i), w); err != nil {
			return err
		}
	}
	return nil
}

// ReadWords copies n 32-bit words out of device memory.
func (g *Global) ReadWords(addr uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		w, err := g.Load32(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// WriteFloats and ReadFloats are WriteWords/ReadWords with float32 views.
func (g *Global) WriteFloats(addr uint32, vals []float32) error {
	words := make([]uint32, len(vals))
	for i, v := range vals {
		words[i] = math.Float32bits(v)
	}
	return g.WriteWords(addr, words)
}

func (g *Global) ReadFloats(addr uint32, n int) ([]float32, error) {
	words, err := g.ReadWords(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i, w := range words {
		out[i] = math.Float32frombits(w)
	}
	return out, nil
}

// Shared is one thread block's shared memory.
type Shared struct {
	data []byte
}

// NewShared creates a shared memory of the given size.
func NewShared(size int) *Shared { return &Shared{data: make([]byte, size)} }

// Size returns the shared memory size in bytes.
func (s *Shared) Size() int { return len(s.data) }

// Load32 reads a 32-bit word from shared memory.
func (s *Shared) Load32(addr uint32) (uint32, error) {
	if addr%4 == 0 && int(addr) <= len(s.data)-4 {
		return binary.LittleEndian.Uint32(s.data[addr:]), nil
	}
	return 0, s.fault(addr)
}

// Store32 writes a 32-bit word to shared memory.
func (s *Shared) Store32(addr, val uint32) error {
	if addr%4 == 0 && int(addr) <= len(s.data)-4 {
		binary.LittleEndian.PutUint32(s.data[addr:], val)
		return nil
	}
	return s.fault(addr)
}

// AtomicAdd32 adds val at addr, returning the old value.
func (s *Shared) AtomicAdd32(addr, val uint32) (uint32, error) {
	old, err := s.Load32(addr)
	if err != nil {
		return 0, err
	}
	return old, s.Store32(addr, old+val)
}

// fault describes a misaligned or out-of-range access (see
// Global.fault).
func (s *Shared) fault(addr uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned shared access at 0x%x", addr)
	}
	return fmt.Errorf("mem: shared access out of range at 0x%x (size 0x%x)", addr, len(s.data))
}

// Params is the read-only kernel parameter space.
type Params struct {
	words []uint32
}

// NewParams builds a parameter block from 32-bit words.
func NewParams(words ...uint32) *Params {
	cp := make([]uint32, len(words))
	copy(cp, words)
	return &Params{words: cp}
}

// Load32 reads parameter word at a byte offset.
func (p *Params) Load32(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned param access at 0x%x", addr)
	}
	i := int(addr / 4)
	if i >= len(p.words) {
		return 0, fmt.Errorf("mem: param access out of range at 0x%x (%d words)", addr, len(p.words))
	}
	return p.words[i], nil
}

// CoalesceSegments writes the distinct aligned segments of segBytes
// touched by the active lanes' 4-byte accesses into bases, as segment
// base addresses in order of first use by ascending lane, and returns
// their count. That count is the number of memory transactions a
// Fermi-style coalescer issues; the timing model charges one LD/ST
// occupancy cycle per segment and probes the caches once per base.
func CoalesceSegments(addrs []uint32, active uint32, segBytes int, bases *[32]uint32) int {
	if segBytes <= 0 {
		segBytes = 128
	}
	seg := uint32(segBytes)
	pow2 := seg&(seg-1) == 0
	n := 0
	for rem := active; rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		if lane >= len(addrs) {
			break
		}
		var b uint32
		if pow2 {
			b = addrs[lane] &^ (seg - 1)
		} else {
			b = addrs[lane] / seg * seg
		}
		// Neighbouring lanes mostly share a segment: test the newest
		// base before scanning the rest.
		if n > 0 && bases[n-1] == b {
			continue
		}
		dup := false
		for _, x := range bases[:n] {
			if x == b {
				dup = true
				break
			}
		}
		if !dup {
			bases[n] = b
			n++
		}
	}
	return n
}

// BankConflictDegree returns the maximum number of active lanes mapping
// to the same shared-memory bank (word-interleaved across numBanks).
// Lanes accessing the same word are broadcast and count once.
// The result is the serialization factor: 1 means conflict-free.
func BankConflictDegree(addrs []uint32, active uint32, numBanks int) int {
	if numBanks <= 0 {
		numBanks = 32
	}
	nb := uint32(numBanks)
	pow2 := nb&(nb-1) == 0
	// Equal words share a bank, so a word is compared only with the
	// distinct words already seen in its own bank: each bank keeps a
	// chain of them through next (1-based indices into words, 0 ends a
	// chain). At most 32 lanes participate, so fixed buffers serve.
	// Beyond 32 banks, chains are kept per bank modulo 32.
	var words [32]uint32
	var next, head, perBank [32]uint8
	n := 0
	max := 1
	for rem := active; rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		if lane >= len(addrs) {
			break
		}
		w := addrs[lane] / 4
		var b uint32
		if pow2 {
			b = w & (nb - 1)
		} else {
			b = w % nb
		}
		slot := b % 32
		dup := false
		for i := head[slot]; i != 0; i = next[i-1] {
			if words[i-1] == w {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		words[n] = w
		next[n] = head[slot]
		n++
		head[slot] = uint8(n)
		perBank[slot]++
		if c := int(perBank[slot]); c > max {
			max = c
		}
	}
	if numBanks <= len(perBank) {
		return max
	}
	// Oversized bank counts (beyond any real shared memory) fold several
	// banks into one chain: count each bank pairwise over the distinct
	// words instead.
	max = 1
	for i := 0; i < n; i++ {
		b := words[i] % nb
		counted := false
		for j := 0; j < i; j++ {
			if words[j]%nb == b {
				counted = true
				break
			}
		}
		if counted {
			continue
		}
		c := 1
		for j := i + 1; j < n; j++ {
			if words[j]%nb == b {
				c++
			}
		}
		if c > max {
			max = c
		}
	}
	return max
}
