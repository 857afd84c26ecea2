package main

import (
	"testing"
	"time"

	"warped/internal/arch"
)

func TestPoolUse(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two workers. Worker A runs [0,40) then [40,100); worker B runs
	// [0,50) and then has nothing left: the last task started at 40,
	// so B idles for good from 50 and the tail is 100-50.
	f := fanoutTiming{start: at(0), end: at(100), tasks: [][2]time.Time{
		{at(0), at(40)}, {at(0), at(50)}, {at(40), at(100)},
	}}
	busy, tail := poolUse([]fanoutTiming{f}, 2)
	if want := 150.0 / 200; busy != want {
		t.Errorf("busy_frac = %v, want %v", busy, want)
	}
	if tail != 50*time.Millisecond {
		t.Errorf("tail = %v, want 50ms", tail)
	}
	// One worker never idles before the end; fan-out tails add up.
	serial := fanoutTiming{start: at(0), end: at(30), tasks: [][2]time.Time{{at(0), at(10)}, {at(10), at(30)}}}
	busy, tail = poolUse([]fanoutTiming{serial}, 1)
	if busy != 1 || tail != 0 {
		t.Errorf("serial: busy=%v tail=%v, want 1 and 0", busy, tail)
	}
	_, tail = poolUse([]fanoutTiming{f, f}, 2)
	if tail != 100*time.Millisecond {
		t.Errorf("two fan-outs: tail = %v, want 100ms", tail)
	}
}

// The fig9 grid is the Figure 9a + 9b campaign: 11 kernels × 8
// machines, DMR on in all but the no-DMR base.
func TestFig9GridShape(t *testing.T) {
	g := fig9Grid()
	cells := g.cells()
	if len(g.fanouts) != 2 || len(g.fanouts[0]) != 33 || len(cells) != 88 {
		t.Fatalf("fan-outs %d, cells %d", len(g.fanouts), len(cells))
	}
	dmr := 0
	for _, c := range cells {
		if c.cfg.DMR != arch.DMROff {
			dmr++
		}
	}
	if dmr != 77 {
		t.Errorf("DMR on in %d cells, want 77", dmr)
	}
}

func TestDigestsPinEveryCell(t *testing.T) {
	want, err := pinned()
	if err != nil {
		t.Fatal(err)
	}
	dense, err := denseGrid()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*grid{"fig9": fig9Grid(), "dense-nodmr": dense} {
		cells := g.cells()
		if len(want[name]) != len(cells) {
			t.Errorf("%s: %d pinned digests for %d cells", name, len(want[name]), len(cells))
		}
		for _, c := range cells {
			if want[name][c.name] == "" {
				t.Errorf("%s: no pinned digest for %s", name, c.name)
			}
		}
	}
}
