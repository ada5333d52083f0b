package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"almanac/internal/flash"
)

// runTraced is the per-layer run. The named workload runs with rounds
// alternating untraced and traced; traced rounds time each layer call
// and run under the CPU profiler. The per-layer metrics a workload owns
// come from its traced rounds: replay owns the core write/read/idle
// timings, history the query timings, and the serving layers come from
// the ladder over the serve op stream. Owners other than the named
// workload get a short traced run of their own, so every traced run
// prints every per-layer metric; cpu.* and trace.overhead_pct describe
// the named workload alone.
func runTraced(name string, seed int64, seconds float64, profDir string) (*result, error) {
	if profDir == "" {
		return nil, errors.New("a traced run needs -profile-dir for its CPU profiles")
	}
	res := &result{Correct: true, Metrics: metrics{}}
	m := res.Metrics
	ms, err := deviceNewMS(flash.DefaultConfig())
	if err != nil {
		return nil, err
	}
	m.set("flash.device_new_ms", "ms", ms)

	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var (
		plainT, tracedT     time.Duration
		plainOps, tracedOps int64
		profiles            []string
		profErr             error
		profiling, warm     bool
		buf                 bytes.Buffer
	)
	stopProfile := func() {
		pprof.StopCPUProfile()
		profiling = false
		path := filepath.Join(profDir, fmt.Sprintf("%s-seed%d-seg%02d.pprof", name, seed, len(profiles)+1))
		profiles = append(profiles, path)
		if e := os.WriteFile(path, buf.Bytes(), 0o644); e != nil && profErr == nil {
			profErr = e
		}
	}
	around := func(r int, traced bool, round func() error) error {
		if traced != profiling {
			if !traced {
				stopProfile()
			}
			// Settle the heap at every switch, outside the timed rounds, so
			// one mode's garbage is not collected on the other mode's time.
			runtime.GC()
			if traced {
				warm = true // the first untraced segment also warms up
				buf.Reset()
				if err := pprof.StartCPUProfile(&buf); err != nil {
					return err
				}
				profiling = true
			}
		}
		before, _ := w.counts()
		t0 := time.Now()
		err := round()
		d := time.Since(t0)
		after, _ := w.counts()
		switch {
		case traced:
			tracedT += d
			tracedOps += after - before
		case warm:
			plainT += d
			plainOps += after - before
		}
		return err
	}
	if err := runRounds(w, seconds, true, around); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	if profiling {
		stopProfile()
	}
	var samples map[string]int64
	if profErr == nil {
		samples, profErr = attribute(profiles)
	}
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	res.Attempted, res.Failed = w.counts()
	w.layers(m)
	if err := w.shared(m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	var total int64
	for _, n := range samples {
		total += n
	}
	for _, c := range cpuLayers {
		m.set("cpu."+c+"_pct", "%", 100*ratio(float64(samples[c]), float64(total)))
	}
	perOp := func(d time.Duration, n int64) float64 { return ratio(d.Seconds(), float64(n)) }
	m.set("trace.overhead_pct", "%", 100*(ratio(perOp(tracedT, tracedOps), perOp(plainT, plainOps))-1))

	// Layers owned by the other workloads. Each phase builds its own
	// devices; the previous phase's memory goes back to the system first,
	// so the traced run's peak stays near one workload's.
	for _, owner := range []string{"replay", "history"} {
		if owner == name {
			continue
		}
		debug.FreeOSMemory()
		if err := ownerLayers(owner, seed, m); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", owner, err)
			res.Correct = false
		}
	}
	debug.FreeOSMemory()
	if err := ladder(seed, m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ladder:", err)
		res.Correct = false
	}
	return res, nil
}

// ownerLayers runs the fixed modeled span of another workload, traced, for
// the per-layer metrics it owns.
func ownerLayers(owner string, seed int64, m metrics) error {
	o, err := newWorkload(owner)
	if err != nil {
		return err
	}
	if err := o.setup(seed); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	for r := 0; r < o.minRounds(); r++ {
		if err := o.round(r, true); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	o.layers(m)
	return nil
}
