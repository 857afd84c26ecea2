package kernels

import (
	"math"
	"testing"

	"warped/internal/arch"
	"warped/internal/sim"
)

// fftReferenceDirect is the DFT with every twiddle computed from its own
// angle, the definition the tabled fftReference must reproduce.
func fftReferenceDirect(re, im []float32) (wr, wi [fftN]float64) {
	for k := 0; k < fftN; k++ {
		for n := 0; n < fftN; n++ {
			ang := -2 * math.Pi * float64(k) * float64(n) / fftN
			c, s := math.Cos(ang), math.Sin(ang)
			xr, xi := float64(re[n]), float64(im[n])
			wr[k] += xr*c - xi*s
			wi[k] += xr*s + xi*c
		}
	}
	return wr, wi
}

// TestFFTReferenceTable: the tabled reference agrees with the per-term
// math.Cos/math.Sin DFT within 1e-9 on every bin of the fixed input.
func TestFFTReferenceTable(t *testing.T) {
	re, im := fftInput()
	for bl := range re {
		wr, wi := fftReference(re[bl], im[bl])
		dr, di := fftReferenceDirect(re[bl], im[bl])
		for k := 0; k < fftN; k++ {
			if math.Abs(wr[k]-dr[k]) > 1e-9 || math.Abs(wi[k]-di[k]) > 1e-9 {
				t.Fatalf("block %d bin %d: table (%g,%g), direct (%g,%g)", bl, k, wr[k], wi[k], dr[k], di[k])
			}
		}
	}
}

// TestFFTCheckStrength: CUFFT's check accepts the simulated output and
// rejects it once a single bin is moved by 0.06, just past the 0.05
// tolerance, away from the reference.
func TestFFTCheckStrength(t *testing.T) {
	b, err := ByName("CUFFT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.New(arch.PaperConfig(), b.GPUMemBytes())
	if err != nil {
		t.Fatal(err)
	}
	run, err := b.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range run.Steps {
		if _, err := g.Launch(s.Kernel, sim.LaunchOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Check(g); err != nil {
		t.Fatalf("check rejects the simulated output: %v", err)
	}

	// Move the real part of block 5, bin 17 by 0.06 in the direction of
	// its existing error, so it lands beyond the tolerance.
	const bl, bin = 5, 17
	base, err := run.Steps[0].Kernel.Params.Load32(0)
	if err != nil {
		t.Fatal(err)
	}
	addr := base + uint32((bl*2*fftN+bin)*4)
	got, err := g.Mem.ReadFloats(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	re, im := fftInput()
	wr, _ := fftReference(re[bl], im[bl])
	moved := float64(got[0]) + 0.06
	if float64(got[0]) < wr[bin] {
		moved = float64(got[0]) - 0.06
	}
	if err := g.Mem.WriteFloats(addr, []float32{float32(moved)}); err != nil {
		t.Fatal(err)
	}
	if err := run.Check(g); err == nil {
		t.Errorf("check accepts block %d bin %d moved from %g to %g (reference %g)", bl, bin, got[0], moved, wr[bin])
	}
}
