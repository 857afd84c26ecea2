package main

import (
	"context"
	"reflect"
	"testing"
)

func ops(seed int64, phase, client, n int) []op {
	s := newStream(seed, phase, client, hotSet(seed, prefillSpecs()))
	out := make([]op, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	a, b := ops(7, 0, 1, 500), ops(7, 0, 1, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, ops(8, 0, 1, 500)) {
		t.Fatal("different seeds gave the same job sequence")
	}
}

// Both clients see the same kinds in the same order, and the same spec
// for each coalesce op, so the ops they submit together can coalesce.
func TestStreamsAlignForCoalescing(t *testing.T) {
	c0, c1 := ops(3, 0, 0, 1000), ops(3, 0, 1, 1000)
	n := map[opKind]int{}
	for i := range c0 {
		if c0[i].kind != c1[i].kind {
			t.Fatalf("op %d: kinds %v and %v", i, c0[i].kind, c1[i].kind)
		}
		n[c0[i].kind]++
		if c0[i].kind == opCoalesce && !reflect.DeepEqual(c0[i].spec, c1[i].spec) {
			t.Fatalf("op %d: coalesce specs differ", i)
		}
	}
	for _, k := range []opKind{opHit, opCold, opCoalesce} {
		if n[k] == 0 {
			t.Errorf("no %v ops in 1000", k)
		}
	}
}

// Fresh specs never repeat, across clients and phases, and they
// assemble.
func TestFreshSpecsUnique(t *testing.T) {
	seen := map[string]string{}
	for phase := 0; phase < 2; phase++ {
		for client := 0; client < clients; client++ {
			for _, o := range ops(11, phase, client, 2000) {
				if o.kind != opCold && !(o.kind == opCoalesce && client == 0) {
					continue
				}
				if prev, ok := seen[o.spec.Source]; ok {
					t.Fatalf("fresh spec repeats: %s and phase %d client %d op %d", prev, phase, client, o.seq)
				}
				seen[o.spec.Source] = o.kind.String()
			}
		}
	}
	c, err := referenceCell("cold", coldSpec(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r := runCell(context.Background(), nil, 0, c); r.err != nil || r.st.WarpInstrs == 0 {
		t.Fatalf("the fresh-job kernel does not run: %v", r.err)
	}
}

func TestHotSetDrawsFromPrefill(t *testing.T) {
	prefill := prefillSpecs()
	hot := hotSet(5, prefill)
	if len(hot) != hotSetSize {
		t.Fatalf("hot set has %d specs", len(hot))
	}
	for _, h := range hot {
		found := false
		for _, p := range prefill {
			found = found || h == p
		}
		if !found {
			t.Fatalf("hot spec %+v is not prefilled", h)
		}
	}
	if !reflect.DeepEqual(hot, hotSet(5, prefill)) {
		t.Fatal("hot set is not a function of the seed")
	}
}
