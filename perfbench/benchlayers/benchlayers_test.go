package benchlayers

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(num int, v uint64) {
	b.varint(uint64(num)<<3 | 0)
	b.varint(v)
}

func (b *pb) bytesField(num int, data []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytesField(num, inner.Bytes())
}

// synthetic builds a gzipped CPU profile: one sample per leaf with the
// given cpu-nanosecond value, each with a caller frame in main.
func synthetic(t *testing.T, leaves []string, values []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "main.main"}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type
		var vt pb
		vt.uint(1, st[0])
		vt.uint(2, st[1])
		prof.bytesField(1, vt.Bytes())
	}
	// Function 1 is main.main; location 1 calls into each leaf.
	var fn pb
	fn.uint(1, 1)
	fn.uint(2, 5)
	prof.bytesField(5, fn.Bytes())
	var loc pb
	loc.uint(1, 1)
	var line pb
	line.uint(1, 1)
	loc.bytesField(4, line.Bytes())
	prof.bytesField(4, loc.Bytes())
	for i, name := range leaves {
		id := uint64(i + 2)
		strs = append(strs, name)
		var f pb
		f.uint(1, id)
		f.uint(2, uint64(len(strs)-1))
		prof.bytesField(5, f.Bytes())
		// The leaf location carries an inlined callee first, so the
		// attribution must take the innermost line.
		var l pb
		l.uint(1, id)
		var inner, outer pb
		inner.uint(1, id)
		outer.uint(1, 1)
		l.bytesField(4, inner.Bytes())
		l.bytesField(4, outer.Bytes())
		prof.bytesField(4, l.Bytes())
		var s pb
		s.packed(1, id, 1)
		s.packed(2, 1, uint64(values[i]))
		prof.bytesField(2, s.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	leaves := []string{
		"warped/internal/sim.(*SM).tick",
		"warped/internal/core.(*Engine).Issue",
		"warped/internal/simt.(*Stack).Push",
		"warped/internal/exec.(*Machine).Step",
		"runtime.duffcopy",
		"encoding/json.(*decodeState).object",
		"net/http.(*conn).serve",
		"warped/internal/sim.(*SM).tick",
		"math.Sqrt",
	}
	values := []int64{100, 50, 5, 20, 10, 7, 3, 100, 5}
	a, err := Attribute(synthetic(t, leaves, values))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"sim": 200, "core": 50, "exec": 25, "runtime": 10,
		"encoding": 7, "net": 3, "other": 5,
	}
	if a.Total != 300 {
		t.Errorf("Total = %d, want 300", a.Total)
	}
	for l, v := range want {
		if a.Self[l] != v {
			t.Errorf("Self[%s] = %d, want %d", l, a.Self[l], v)
		}
	}
	if got := a.Frac("sim"); got != 200.0/300 {
		t.Errorf("Frac(sim) = %v", got)
	}
	if got := a.Sorted(); got[0] != "sim" || got[1] != "core" {
		t.Errorf("Sorted = %v", got)
	}
}

func TestLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"warped/internal/cache.(*Cache).Access":         "cache",
		"warped/internal/mem.CoalesceSegments":          "mem",
		"warped/client.(*Client).Wait":                  "client",
		"warped/internal/cluster.(*Coordinator).Submit": "cluster",
		"warped/internal/store.(*Store).Put":            "store",
		"warped/internal/asm.parseInstr":                "asm",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/atomic.(*Uint32).Load":        "runtime",
		"sync.(*Mutex).Lock":                            "runtime",
		"syscall.Syscall6":                              "net",
		"internal/poll.(*FD).Read":                      "net",
		"encoding/json.Marshal":                         "encoding",
		"main.main":                                     "other",
	} {
		if got := Layer(fn); got != want {
			t.Errorf("Layer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeRejectsTruncated(t *testing.T) {
	if _, err := Attribute([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
