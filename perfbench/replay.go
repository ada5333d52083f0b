package main

import (
	"fmt"
	"time"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// replay: one TimeSSD at paper defaults, half filled, replaying a
// multi-week trace of the write-busiest MSR profile with its idle gaps
// announced. A round is one virtual day of the trace.
const (
	replayProfile   = "src"
	replayDays      = 96  // trace length; a run stops early when it ends
	replaySimFrom   = 14  // the modeled span and the host metrics skip the
	replaySimDays   = 42  // first two weeks, in which GC starts; the span ends after six weeks
	replayReqPerDay = 900 // reference rate, scaled by the profile's intensity
	replaySample    = 384 // pages whose full history is checked at the end
)

func replayGeometry() flash.Config { return flash.DefaultConfig() }

type replayWL struct {
	seed   int64
	cfg    core.Config
	dev    *core.TimeSSD
	m      *model
	reqs   []trace.Request
	dayIdx []int // dayIdx[d] is the first request of day d
	next   int
	prev   vclock.Time // completion of the previous request

	// Host time.
	lat     []float64 // µs of foreground device calls per request
	busy    time.Duration
	pageOps int64
	failed  int64

	// Traced rounds only.
	wT, rT, idleT, fgT time.Duration
	wN, rN             int64
	idleComp           int64

	rates []float64 // page ops per second of device time, per day

	// Modeled, over the fixed span.
	base    obs.Counters // after setup
	simBase obs.Counters // at the start of the modeled span
	rets    []float64    // retention window at the end of each modeled day
	simResp vclock.Duration
	simReqs int64
	simWA   float64
	simRet  float64
	simLat  float64
}

func (w *replayWL) setup(seed int64) error {
	w.seed = seed
	w.cfg = core.DefaultConfig(ftl.WithFlash(replayGeometry()))
	dev, err := core.New(w.cfg)
	if err != nil {
		return err
	}
	w.dev = dev
	gen := trace.NewContentGen(dev.PageSize(), trace.ContentSimilar, seed)
	w.m = newModel(gen, dev.LogicalPages())
	footprint := uint64(dev.LogicalPages() / 2)
	at := vclock.Time(0)
	for lpa := uint64(0); lpa < footprint; lpa++ {
		data, v := w.m.nextContent(lpa)
		done, err := dev.Write(lpa, data, at)
		if err != nil {
			return fmt.Errorf("prefill lpa %d: %w", lpa, err)
		}
		w.m.commitWrite(lpa, v, at)
		at = done
	}
	spec, err := trace.NamedSpec(replayProfile, footprint, replayDays, replayReqPerDay, seed)
	if err != nil {
		return err
	}
	if w.reqs, err = trace.Generate(spec); err != nil {
		return err
	}
	shift := at.Add(vclock.Second)
	for i := range w.reqs {
		w.reqs[i].At += shift
	}
	for d, i := 0, 0; d <= replayDays; d++ {
		end := shift.Add(vclock.Duration(d) * vclock.Day)
		for i < len(w.reqs) && w.reqs[i].At < end {
			i++
		}
		w.dayIdx = append(w.dayIdx, i)
	}
	w.prev = shift
	w.base = dev.Counters()
	return nil
}

func (w *replayWL) minRounds() int  { return replaySimDays }
func (w *replayWL) more(r int) bool { return r < replayDays }

func (w *replayWL) round(r int, traced bool) error {
	dev := w.dev
	if traced {
		comp := dev.Counters().IdleCompressions
		defer func() { w.idleComp += dev.Counters().IdleCompressions - comp }()
	}
	logical := uint64(dev.LogicalPages())
	sim := r >= replaySimFrom && r < replaySimDays
	if r == replaySimFrom {
		w.simBase = dev.Counters()
	}
	ops0, busy0 := w.pageOps, w.busy
	defer func() {
		if r >= replaySimFrom {
			w.rates = append(w.rates, ratio(float64(w.pageOps-ops0), (w.busy-busy0).Seconds()))
		}
		if sim {
			w.rets = append(w.rets, dev.RetentionDuration(w.prev).Hours())
		}
	}()
	for ; w.next < w.dayIdx[r+1]; w.next++ {
		req := w.reqs[w.next]
		if req.At > w.prev {
			t0 := time.Now()
			dev.Idle(w.prev, req.At)
			d := time.Since(t0)
			w.busy += d
			if traced {
				w.idleT += d
			}
		}
		arrival := req.At
		done := arrival
		var fg time.Duration
		for p := 0; p < req.Pages; p++ {
			lpa := (req.LPA + uint64(p)) % logical
			w.pageOps++
			switch req.Op {
			case trace.OpRead:
				t0 := time.Now()
				got, d, err := dev.Read(lpa, arrival)
				el := time.Since(t0)
				fg += el
				if traced {
					w.rT += el
					w.rN++
				}
				if err != nil {
					w.failed++
					continue
				}
				if err := checkPage(got, w.m.content(lpa, w.m.head(lpa)), dev.PageSize()); err != nil {
					return fmt.Errorf("read lpa %d: %w", lpa, err)
				}
				done = max(done, d)
			case trace.OpWrite:
				data, v := w.m.nextContent(lpa)
				t0 := time.Now()
				d, err := dev.Write(lpa, data, arrival)
				el := time.Since(t0)
				fg += el
				if traced {
					w.wT += el
					w.wN++
				}
				if err != nil {
					w.failed++
					continue
				}
				w.m.commitWrite(lpa, v, arrival)
				done = max(done, d)
			case trace.OpTrim:
				t0 := time.Now()
				d, err := dev.Trim(lpa, done)
				fg += time.Since(t0)
				if err != nil {
					w.failed++
					continue
				}
				w.m.commitTrim(lpa, arrival)
				done = d
			}
		}
		w.busy += fg
		if traced {
			w.fgT += fg
		}
		if r >= replaySimFrom {
			w.lat = append(w.lat, us(fg))
		}
		if sim {
			w.simResp += done.Sub(arrival)
			w.simReqs++
		}
		w.prev = done
	}
	return nil
}

func (w *replayWL) simCut() {
	c := w.dev.Counters()
	w.simWA = ratio(float64(c.FlashPrograms-w.simBase.FlashPrograms), float64(c.HostPageWrites-w.simBase.HostPageWrites))
	w.simRet = mean(w.rets)
	w.simLat = ratio(float64(w.simResp)/1e3, float64(w.simReqs))
}

func (w *replayWL) finish() error {
	dev := w.dev
	if ret := dev.RetentionDuration(w.prev); ret < w.cfg.MinRetention {
		return fmt.Errorf("retention window %v below the configured minimum %v", ret, w.cfg.MinRetention)
	}
	if err := checkConservation(dev.Counters(), w.m.acked, 0); err != nil {
		return err
	}
	ws := dev.RetentionWindowStart()
	at := w.prev
	for _, lpa := range samplePages(w.seed, dev.LogicalPages()/2, replaySample) {
		vs, done, err := dev.Versions(lpa, at)
		if err != nil {
			return fmt.Errorf("versions lpa %d: %w", lpa, err)
		}
		if err := checkHistory(w.m, lpa, vs, ws); err != nil {
			return err
		}
		ts, done, err := dev.Timestamps(lpa, done)
		if err != nil {
			return fmt.Errorf("timestamps lpa %d: %w", lpa, err)
		}
		if err := checkTimestamps(lpa, ts, vs); err != nil {
			return err
		}
		at = done
	}
	return nil
}

func (w *replayWL) endToEnd(m metrics) {
	hostMetrics(m, w.rates, w.lat, latencyBlock)
	m.set("sim_write_amp", "ratio", w.simWA)
	m.set("sim_retention_h", "h", w.simRet)
	m.set("sim_latency_mean_us", "us", w.simLat)
}

func (w *replayWL) layers(m metrics) {
	m.set("core.write_us", "us", ratio(us(w.wT), float64(w.wN)))
	m.set("core.read_us", "us", ratio(us(w.rT), float64(w.rN)))
	m.set("core.idle_share_pct", "%", 100*ratio(w.idleT.Seconds(), (w.idleT+w.fgT).Seconds()))
	m.set("core.idle_us_per_compression", "us", ratio(us(w.idleT), float64(w.idleComp)))
}

func (w *replayWL) shared(m metrics) error { return deviceShared(m, w.dev.Counters(), w.base, w.m) }

func (w *replayWL) counts() (int64, int64) { return w.pageOps, w.failed }
