package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	g := NewGlobal(1 << 16)
	a := g.MustAlloc(3)
	b := g.MustAlloc(17)
	if a%256 != 0 || b%256 != 0 {
		t.Errorf("allocations not 256-byte aligned: %d %d", a, b)
	}
	if b <= a {
		t.Error("bump allocator went backwards")
	}
	if a == 0 {
		t.Error("address 0 must stay unallocated (null)")
	}
}

func TestAllocExhaustion(t *testing.T) {
	g := NewGlobal(512)
	if _, err := g.Alloc(1 << 20); err == nil {
		t.Error("expected out-of-memory error")
	}
	if _, err := g.Alloc(-1); err == nil {
		t.Error("expected negative-size error")
	}
}

func TestGlobalLoadStore(t *testing.T) {
	g := NewGlobal(1 << 12)
	a := g.MustAlloc(16)
	if err := g.Store32(a, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load32(a)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Errorf("load = %x", v)
	}
}

func TestGlobalFaults(t *testing.T) {
	g := NewGlobal(1 << 12)
	if _, err := g.Load32(2); err == nil {
		t.Error("misaligned load must fault")
	}
	if err := g.Store32(1<<12, 0); err == nil {
		t.Error("out-of-range store must fault")
	}
	if _, err := g.Load32(1<<12 - 2); err == nil {
		t.Error("straddling load must fault")
	}
}

func TestAtomicAdd(t *testing.T) {
	g := NewGlobal(1 << 12)
	a := g.MustAlloc(4)
	if err := g.Store32(a, 10); err != nil {
		t.Fatal(err)
	}
	old, err := g.AtomicAdd32(a, 5)
	if err != nil || old != 10 {
		t.Fatalf("old = %d, err = %v", old, err)
	}
	v, _ := g.Load32(a)
	if v != 15 {
		t.Errorf("after add = %d", v)
	}
}

func TestWordAndFloatViews(t *testing.T) {
	g := NewGlobal(1 << 12)
	a := g.MustAlloc(64)
	in := []float32{1.5, -2.25, 0, 3e8}
	if err := g.WriteFloats(a, in); err != nil {
		t.Fatal(err)
	}
	out, err := g.ReadFloats(a, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("float[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	words := []uint32{1, 2, 3}
	if err := g.WriteWords(a, words); err != nil {
		t.Fatal(err)
	}
	w, err := g.ReadWords(a, 3)
	if err != nil || w[2] != 3 {
		t.Fatalf("words = %v, err = %v", w, err)
	}
}

func TestSharedMemory(t *testing.T) {
	s := NewShared(256)
	if err := s.Store32(252, 42); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Load32(252)
	if v != 42 {
		t.Errorf("shared load = %d", v)
	}
	if err := s.Store32(256, 0); err == nil {
		t.Error("OOB shared store must fault")
	}
	if _, err := s.Load32(3); err == nil {
		t.Error("misaligned shared load must fault")
	}
	old, err := s.AtomicAdd32(0, 7)
	if err != nil || old != 0 {
		t.Fatal("shared atomic broken")
	}
	v, _ = s.Load32(0)
	if v != 7 {
		t.Error("shared atomic result wrong")
	}
}

func TestParams(t *testing.T) {
	p := NewParams(11, 22, 33)
	for i, want := range []uint32{11, 22, 33} {
		v, err := p.Load32(uint32(4 * i))
		if err != nil || v != want {
			t.Errorf("param %d = %d (%v), want %d", i, v, err, want)
		}
	}
	if _, err := p.Load32(12); err == nil {
		t.Error("param OOB must fault")
	}
	if _, err := p.Load32(2); err == nil {
		t.Error("misaligned param must fault")
	}
}

func TestCoalesceSegments(t *testing.T) {
	all := uint32(0xFFFFFFFF)
	// 32 consecutive 4-byte words = one 128-byte segment.
	var addrs []uint32
	for i := 0; i < 32; i++ {
		addrs = append(addrs, uint32(4*i))
	}
	if n := CoalesceSegments(addrs, all, 128, new([32]uint32)); n != 1 {
		t.Errorf("unit-stride = %d segments, want 1", n)
	}
	// Stride 128: every lane its own segment.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if n := CoalesceSegments(addrs, all, 128, new([32]uint32)); n != 32 {
		t.Errorf("stride-128 = %d segments, want 32", n)
	}
	// Only active lanes count.
	if n := CoalesceSegments(addrs, 0x1, 128, new([32]uint32)); n != 1 {
		t.Errorf("single lane = %d segments, want 1", n)
	}
	if n := CoalesceSegments(addrs, 0, 128, new([32]uint32)); n != 0 {
		t.Errorf("no lanes = %d segments, want 0", n)
	}
	// Broadcast: everyone loads the same word.
	for i := range addrs {
		addrs[i] = 256
	}
	if n := CoalesceSegments(addrs, all, 128, new([32]uint32)); n != 1 {
		t.Errorf("broadcast = %d segments, want 1", n)
	}
}

func TestBankConflictDegree(t *testing.T) {
	all := uint32(0xFFFFFFFF)
	addrs := make([]uint32, 32)
	// Unit stride: conflict-free.
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if d := BankConflictDegree(addrs, all, 32); d != 1 {
		t.Errorf("unit stride degree = %d, want 1", d)
	}
	// Stride 2 words: 2-way conflicts.
	for i := range addrs {
		addrs[i] = uint32(8 * i)
	}
	if d := BankConflictDegree(addrs, all, 32); d != 2 {
		t.Errorf("stride-2 degree = %d, want 2", d)
	}
	// Stride 32 words: all lanes hit bank 0 -> 32-way.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if d := BankConflictDegree(addrs, all, 32); d != 32 {
		t.Errorf("stride-32 degree = %d, want 32", d)
	}
	// Same word everywhere: broadcast, no conflict.
	for i := range addrs {
		addrs[i] = 64
	}
	if d := BankConflictDegree(addrs, all, 32); d != 1 {
		t.Errorf("broadcast degree = %d, want 1", d)
	}
	// Empty mask yields 1 (no serialization).
	if d := BankConflictDegree(addrs, 0, 32); d != 1 {
		t.Errorf("empty degree = %d, want 1", d)
	}
}

// Property: the conflict degree is between 1 and the active lane count,
// and the coalesced segment count never exceeds active lanes.
func TestAccessCostBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, mask uint32) bool {
		r := rand.New(rand.NewSource(seed))
		addrs := make([]uint32, 32)
		for i := range addrs {
			addrs[i] = uint32(r.Intn(1<<14)) &^ 3
		}
		active := 0
		for i := 0; i < 32; i++ {
			if mask&(1<<i) != 0 {
				active++
			}
		}
		segs := CoalesceSegments(addrs, mask, 128, new([32]uint32))
		deg := BankConflictDegree(addrs, mask, 32)
		if segs < 0 || segs > active {
			return false
		}
		if deg < 1 || (active > 0 && deg > active) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// pairwiseBankDegree is the quadratic reference BankConflictDegree
// replaced: dedup the active words by scanning all earlier ones, then
// count each bank's distinct words pairwise.
func pairwiseBankDegree(addrs []uint32, active uint32, numBanks int) int {
	if numBanks <= 0 {
		numBanks = 32
	}
	var words []uint32
	for lane, a := range addrs {
		if active&(1<<uint(lane)) == 0 {
			continue
		}
		dup := false
		for _, w := range words {
			if w == a/4 {
				dup = true
				break
			}
		}
		if !dup {
			words = append(words, a/4)
		}
	}
	max := 1
	for i := range words {
		c := 0
		for j := range words {
			if words[j]%uint32(numBanks) == words[i]%uint32(numBanks) {
				c++
			}
		}
		if c > max {
			max = c
		}
	}
	return max
}

// TestBankConflictDegreeOracle checks the per-bank chained count
// against the pairwise reference: random address vectors, broadcast
// (every lane on one word), and one bank hit through distinct words,
// under random masks, for power-of-two, odd and oversized bank counts.
func TestBankConflictDegreeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, banks := range []int{1, 2, 3, 16, 32, 33, 48, 64, 1000, 0} {
		gens := map[string]func(lane int) uint32{
			"random":       func(int) uint32 { return uint32(rng.Intn(1 << 12)) },
			"random-wide":  func(int) uint32 { return rng.Uint32() },
			"few-words":    func(int) uint32 { return uint32(4 * rng.Intn(6)) },
			"broadcast":    func(int) uint32 { return 4 * 77 },
			"one-bank":     func(lane int) uint32 { return uint32(4 * max(banks, 1) * lane) },
			"one-bank-dup": func(lane int) uint32 { return uint32(4 * max(banks, 1) * (lane % 5)) },
		}
		for name, gen := range gens {
			for trial := 0; trial < 50; trial++ {
				addrs := make([]uint32, 32)
				for lane := range addrs {
					addrs[lane] = gen(lane)
				}
				mask := rng.Uint32()
				if trial == 0 {
					mask = 0xFFFFFFFF
				}
				got := BankConflictDegree(addrs, mask, banks)
				if want := pairwiseBankDegree(addrs, mask, banks); got != want {
					t.Fatalf("banks %d %s mask %08x: degree %d, pairwise %d (addrs %v)", banks, name, mask, got, want, addrs)
				}
			}
		}
	}
}

// TestCoalesceSegmentsBases checks the recorded segment bases: distinct
// aligned bases in order of first use by ascending active lane, for a
// power-of-two and a non-power-of-two segment size.
func TestCoalesceSegmentsBases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, seg := range []int{128, 96, 32} {
		for trial := 0; trial < 200; trial++ {
			addrs := make([]uint32, 32)
			for lane := range addrs {
				addrs[lane] = uint32(4 * rng.Intn(256))
			}
			mask := rng.Uint32()
			var want []uint32
			for lane, a := range addrs {
				if mask&(1<<uint(lane)) == 0 {
					continue
				}
				b := a / uint32(seg) * uint32(seg)
				dup := false
				for _, x := range want {
					dup = dup || x == b
				}
				if !dup {
					want = append(want, b)
				}
			}
			var bases [32]uint32
			n := CoalesceSegments(addrs, mask, seg, &bases)
			if n != len(want) {
				t.Fatalf("seg %d mask %08x: %d segments, want %d", seg, mask, n, len(want))
			}
			for i := range want {
				if bases[i] != want[i] {
					t.Fatalf("seg %d mask %08x: bases %v, want %v", seg, mask, bases[:n], want)
				}
			}
		}
	}
}

// laneAddrs returns 32 lane addresses base + stride*lane.
func laneAddrs(base, stride uint32) []uint32 {
	addrs := make([]uint32, 32)
	for lane := range addrs {
		addrs[lane] = base + stride*uint32(lane)
	}
	return addrs
}

var benchSink int

func BenchmarkBankConflictDegree(b *testing.B) {
	for _, c := range []struct {
		name  string
		addrs []uint32
	}{
		{"conflict-free", laneAddrs(0, 4)},
		{"2way", laneAddrs(0, 8)},
		{"broadcast", laneAddrs(64, 0)},
		{"32way", laneAddrs(0, 128)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = BankConflictDegree(c.addrs, 0xFFFFFFFF, 32)
			}
		})
	}
}

func BenchmarkCoalesceSegments(b *testing.B) {
	var bases [32]uint32
	for _, c := range []struct {
		name  string
		addrs []uint32
	}{
		{"unit-stride", laneAddrs(256, 4)},
		{"stride-2", laneAddrs(256, 8)},
		{"scattered", laneAddrs(256, 128)},
		{"broadcast", laneAddrs(256, 0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = CoalesceSegments(c.addrs, 0xFFFFFFFF, 128, &bases)
			}
		})
	}
}
