package main

import (
	"fmt"
	"os"
	"time"

	"warped/internal/asm"
	"warped/internal/store"
)

// replayed is a payload the run produced, under its content key.
type replayed struct {
	key     string
	payload []byte
}

// replay times store.Open, Put and Get directly, over the payloads on
// a fresh store under dir, and asm.AssembleVerified over the sources,
// and records the store.* and asm.* timings. openS are the run's other
// store.Open times, reported together with the replay's own.
func (w *workloadRun) replay(dir string, payloads []replayed, sources []string, openS []float64) error {
	defer os.RemoveAll(dir)
	start := time.Now()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	openS = append(openS, time.Since(start).Seconds())
	var put, get, assemble []float64
	for _, p := range payloads {
		t := time.Now()
		if err := st.Put(p.key, p.payload); err != nil {
			return err
		}
		put = append(put, ms(time.Since(t)))
	}
	for _, p := range payloads {
		t := time.Now()
		if _, ok := st.Get(p.key); !ok {
			return fmt.Errorf("store replay: %s missing after Put", p.key)
		}
		get = append(get, ms(time.Since(t)))
	}
	for _, src := range sources {
		t := time.Now()
		if _, err := asm.AssembleVerified(src); err != nil {
			return err
		}
		assemble = append(assemble, ms(time.Since(t)))
	}
	w.layer("store.open_s", median(openS), len(openS))
	w.layer("store.put_ms_p50", median(put), len(put))
	w.layer("store.put_ms_p99", quantile(put, 0.99), len(put))
	w.layer("store.get_ms_p50", median(get), len(get))
	w.layer("asm.assemble_verified_ms_p50", median(assemble), len(assemble))
	return nil
}
