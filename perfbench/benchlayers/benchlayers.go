// Package benchlayers attributes the samples of a Go CPU profile to
// the layers of the warped module by the self (leaf-frame) time of
// each sample. It reads the gzipped protobuf that runtime/pprof
// writes, with a minimal decoder, so the benchmark needs no module
// outside the standard library.
package benchlayers

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// modules maps a warped package path to its layer. simt reports with
// exec: both are the execute stage.
var modules = map[string]string{
	"warped/internal/experiments": "experiments",
	"warped/internal/runner":      "runner",
	"warped/internal/kernels":     "kernels",
	"warped/internal/sim":         "sim",
	"warped/internal/core":        "core",
	"warped/internal/exec":        "exec",
	"warped/internal/simt":        "exec",
	"warped/internal/mem":         "mem",
	"warped/internal/cache":       "cache",
	"warped/internal/asm":         "asm",
	"warped/internal/verify":      "verify",
	"warped/client":               "client",
	"warped/internal/cluster":     "cluster",
	"warped/internal/service":     "service",
	"warped/internal/store":       "store",
	"warped/internal/metrics":     "metrics",
}

// Layer maps a fully qualified Go function name, as pprof records it
// (for example "warped/internal/sim.(*SM).tick" or "runtime.memclrNoHeapPointers"),
// to its layer.
func Layer(fn string) string {
	pkg := packageOf(fn)
	if l, ok := modules[pkg]; ok {
		return l
	}
	top, _, _ := strings.Cut(pkg, "/")
	switch {
	case top == "net" || top == "crypto" || top == "syscall" || top == "bufio" || top == "vendor" || pkg == "internal/poll":
		return "net"
	case top == "runtime" || top == "sync" || top == "internal":
		return "runtime"
	case top == "encoding" || pkg == "strconv" || pkg == "unicode/utf8":
		return "encoding"
	}
	return "other"
}

// packageOf strips the function part of a qualified name: the package
// path ends at the first dot after the last slash.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Attribution is a profile's sample weight per layer, by leaf frame.
type Attribution struct {
	// Self is the summed sample value (nanoseconds of CPU for a CPU
	// profile) of the samples whose leaf frame lies in each layer.
	Self map[string]int64
	// Total is the summed value of every sample.
	Total int64
}

// Frac returns a layer's share of Total, or 0 for an empty profile.
func (a *Attribution) Frac(layer string) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Self[layer]) / float64(a.Total)
}

// Sorted returns the layers with non-zero self time, heaviest first.
func (a *Attribution) Sorted() []string {
	var out []string
	for l, v := range a.Self {
		if v > 0 {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if a.Self[out[i]] != a.Self[out[j]] {
			return a.Self[out[i]] > a.Self[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Attribute parses a profile (gzipped or raw protobuf) and sums the
// last sample value — cpu nanoseconds in a CPU profile — by the layer
// of each sample's leaf frame. The leaf frame is the innermost inlined
// function of the sample's first location.
func Attribute(data []byte) (*Attribution, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("benchlayers: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("benchlayers: %w", err)
		}
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("benchlayers: %w", err)
	}
	fnName := make(map[uint64]string, len(p.functions))
	for _, f := range p.functions {
		if f.name < uint64(len(p.strings)) {
			fnName[f.id] = p.strings[f.name]
		}
	}
	leaf := make(map[uint64]string, len(p.locations))
	for _, l := range p.locations {
		if len(l.functions) > 0 {
			leaf[l.id] = fnName[l.functions[0]]
		}
	}
	a := &Attribution{Self: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		a.Total += v
		layer := "other"
		if len(s.locations) > 0 {
			if fn, ok := leaf[s.locations[0]]; ok {
				layer = Layer(fn)
			}
		}
		a.Self[layer] += v
	}
	return a, nil
}

// The subset of profile.proto (github.com/google/pprof) the
// attribution reads. Field numbers follow that schema.
type profile struct {
	samples   []sample
	locations []location
	functions []function
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
}

type location struct {
	id        uint64
	functions []uint64 // Line.function_id, innermost first
}

type function struct {
	id, name uint64
}

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: a varint value or a
// length-delimited payload.
type field struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

func fields(b []byte, fn func(f field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated integer field, packed or not.
func repeated(f field, out *[]uint64) error {
	if f.wire == 0 {
		*out = append(*out, f.value)
		return nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*out = append(*out, v)
		b = b[n:]
	}
	return nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{}
	err := fields(b, func(f field) error {
		switch f.num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					return repeated(g, &s.locations)
				case 2:
					return repeated(g, &vals)
				}
				return nil
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var l location
			err := fields(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					l.id = g.value
				case 4: // Line
					return fields(g.bytes, func(h field) error {
						if h.num == 1 {
							l.functions = append(l.functions, h.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, l)
			return err
		case 5: // Function
			var fn function
			err := fields(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					fn.id = g.value
				case 2:
					fn.name = g.value
				}
				return nil
			})
			p.functions = append(p.functions, fn)
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	return p, err
}
