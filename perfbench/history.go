package main

import (
	"fmt"
	"math/rand"
	"time"

	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/timekits"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// history: one TimeSSD at paper defaults given a deep retained history —
// every page of a working set larger than the reference cache written
// many times, with idle gaps that compress old versions into delta pages —
// then a timed mix of TimeKits calls. A round is one fixed mix.
const (
	historyPages    = 2048 // working set; the reference cache holds 1024 versions
	historyVersions = 20   // versions per page
	historyGenGap   = vclock.Hour
	historyStep     = vclock.Millisecond
	historySim      = 24 // rounds in the fixed modeled span
	// Per round: AddrQueryAll and AddrQuery(t) calls, TimeQueryRange
	// calls, and single-page rollbacks with read-back.
	historyAll      = 12
	historyAt       = 12
	historyRange    = 1
	historyRollBack = 3
	historySample   = 128 // pages whose Timestamps are checked at the end
)

type historyWL struct {
	seed  int64
	dev   *core.TimeSSD
	kit   *timekits.Kit
	m     *model
	rng   *rand.Rand
	gens  []vclock.Time // start of each setup generation
	now   vclock.Time
	calls int64

	callT  time.Duration
	lat    []float64
	rates  []float64 // calls per second of call time, per round
	failed int64

	// Traced rounds only.
	versT, aqT, tqT, rbT  time.Duration
	versN, aqN, tqN, rbN  int64
	versionsOut           int64
	flashReads, hits, mis int64

	base    obs.Counters
	sim     bool
	simResp vclock.Duration
	simN    int64
	simWA   float64
	simRet  float64
	simLat  float64
}

func (w *historyWL) setup(seed int64) error {
	w.seed = seed
	w.rng = rand.New(rand.NewSource(seed))
	dev, err := core.New(core.DefaultConfig(ftl.WithFlash(flash.DefaultConfig())))
	if err != nil {
		return err
	}
	w.dev, w.kit = dev, timekits.New(dev)
	w.m = newModel(trace.NewContentGen(dev.PageSize(), trace.ContentSimilar, seed), dev.LogicalPages())
	at := vclock.Time(vclock.Hour)
	for g := 0; g < historyVersions; g++ {
		at = vclock.Time(vclock.Hour).Add(vclock.Duration(g) * historyGenGap)
		w.gens = append(w.gens, at)
		for lpa := uint64(0); lpa < historyPages; lpa++ {
			data, v := w.m.nextContent(lpa)
			at = at.Add(historyStep)
			if _, err := dev.Write(lpa, data, at); err != nil {
				return fmt.Errorf("history lpa %d version %d: %w", lpa, v, err)
			}
			w.m.commitWrite(lpa, v, at)
		}
		// The gap to the next generation is announced, so idle cycles
		// compress retained versions into delta pages (§3.6).
		dev.Idle(at, at.Add(historyGenGap/2))
	}
	w.now = at.Add(historyGenGap)
	w.base = dev.Counters()
	w.sim = true
	return nil
}

func (w *historyWL) minRounds() int  { return historySim }
func (w *historyWL) more(r int) bool { return true }

// pastTime draws an instant inside the setup history, between two
// generations' writes of the same page, so the model knows its answer.
func (w *historyWL) pastTime() vclock.Time {
	g := 1 + w.rng.Intn(historyVersions-1)
	return w.gens[g].Add(-vclock.Millisecond)
}

// call times fn, one TimeKits call issued at the current virtual time,
// and advances virtual time to its completion.
func (w *historyWL) call(fn func(at vclock.Time) (vclock.Time, error)) (time.Duration, vclock.Time, error) {
	at := w.now
	t0 := time.Now()
	done, err := fn(at)
	d := time.Since(t0)
	w.calls++
	w.callT += d
	w.lat = append(w.lat, us(d))
	if err != nil {
		w.failed++
		return d, at, err
	}
	if w.sim {
		w.simResp += done.Sub(at)
		w.simN++
	}
	if done > w.now {
		w.now = done
	}
	w.now = w.now.Add(historyStep)
	return d, at, nil
}

func (w *historyWL) round(r int, traced bool) error {
	calls0, t0 := w.calls, w.callT
	defer func() { w.rates = append(w.rates, ratio(float64(w.calls-calls0), (w.callT-t0).Seconds())) }()
	ws := w.dev.RetentionWindowStart()
	for i := 0; i < historyAll; i++ {
		lpa := uint64(w.rng.Intn(historyPages))
		var res timekits.Result[[]timekits.PageVersions]
		var c0 obs.Counters
		if traced {
			c0 = w.dev.Counters()
		}
		_, _, err := w.call(func(at vclock.Time) (vclock.Time, error) {
			var err error
			res, err = w.kit.AddrQueryAll(lpa, 1, at)
			return res.Done, err
		})
		if err != nil {
			return fmt.Errorf("AddrQueryAll lpa %d: %w", lpa, err)
		}
		vs := res.Value[0].Versions
		if traced {
			c := w.dev.Counters()
			w.flashReads += c.FlashReads - c0.FlashReads
			w.hits += c.RefCacheHits - c0.RefCacheHits
			w.mis += c.RefCacheMisses - c0.RefCacheMisses
		}
		if err := checkHistory(w.m, lpa, vs, ws); err != nil {
			return err
		}
		if traced {
			w.versionsOut += int64(len(vs))
			t0 := time.Now()
			again, done, err := w.dev.Versions(lpa, w.now)
			w.versT += time.Since(t0)
			w.versN++
			if err != nil {
				return err
			}
			if len(again) != len(vs) {
				return fmt.Errorf("lpa %d: Versions returned %d versions, AddrQueryAll %d", lpa, len(again), len(vs))
			}
			w.now = done.Add(historyStep)
		}
	}
	for i := 0; i < historyAt; i++ {
		lpa, t := uint64(w.rng.Intn(historyPages)), w.pastTime()
		var res timekits.Result[[]timekits.PageVersions]
		d, _, err := w.call(func(at vclock.Time) (vclock.Time, error) {
			var err error
			res, err = w.kit.AddrQuery(lpa, 1, t, at)
			return res.Done, err
		})
		if err != nil {
			return fmt.Errorf("AddrQuery lpa %d at %d: %w", lpa, t, err)
		}
		if err := checkVersionAt(w.m, lpa, t, res.Value[0].Versions); err != nil {
			return err
		}
		if traced {
			w.aqT += d
			w.aqN++
		}
	}
	for i := 0; i < historyRange; i++ {
		g := w.rng.Intn(historyVersions - 1)
		t1, t2 := w.gens[g], w.gens[g+1]
		var res timekits.Result[[]core.UpdateRecord]
		d, _, err := w.call(func(at vclock.Time) (vclock.Time, error) {
			var err error
			res, err = w.kit.TimeQueryRange(t1, t2, at)
			return res.Done, err
		})
		if err != nil {
			return fmt.Errorf("TimeQueryRange [%d, %d]: %w", t1, t2, err)
		}
		if err := checkTimeRange(w.m, t1, t2, res.Value); err != nil {
			return err
		}
		if traced {
			w.tqT += d
			w.tqN++
		}
	}
	for i := 0; i < historyRollBack; i++ {
		lpa, t := uint64(w.rng.Intn(historyPages)), w.pastTime()
		var got []byte
		d, at, err := w.call(func(at vclock.Time) (vclock.Time, error) {
			res, err := w.kit.RollBack(lpa, 1, t, at)
			if err != nil {
				return res.Done, err
			}
			data, done, err := w.dev.Read(lpa, res.Done)
			got = append(got[:0], data...)
			return done, err
		})
		if err != nil {
			return fmt.Errorf("RollBack lpa %d to %d: %w", lpa, t, err)
		}
		w.m.commitRollBack(lpa, t, at, w.now)
		if err := checkRolledBack(w.m, lpa, t, [][]byte{got}); err != nil {
			return err
		}
		if traced {
			w.rbT += d
			w.rbN++
		}
	}
	return nil
}

func (w *historyWL) simCut() {
	c := w.dev.Counters()
	w.simWA = ratio(float64(c.FlashPrograms-w.base.FlashPrograms), float64(c.HostPageWrites-w.base.HostPageWrites))
	w.simRet = w.dev.RetentionDuration(w.now).Hours()
	w.simLat = ratio(float64(w.simResp)/1e3, float64(w.simN))
	w.sim = false
}

func (w *historyWL) finish() error {
	if err := checkConservation(w.dev.Counters(), w.m.acked, w.m.rbWrites); err != nil {
		return err
	}
	ws := w.dev.RetentionWindowStart()
	at := w.now
	for _, lpa := range samplePages(w.seed, historyPages, historySample) {
		vs, done, err := w.dev.Versions(lpa, at)
		if err != nil {
			return err
		}
		if err := checkHistory(w.m, lpa, vs, ws); err != nil {
			return err
		}
		ts, done, err := w.dev.Timestamps(lpa, done)
		if err != nil {
			return err
		}
		if err := checkTimestamps(lpa, ts, vs); err != nil {
			return err
		}
		at = done
	}
	return nil
}

func (w *historyWL) endToEnd(m metrics) {
	hostMetrics(m, w.rates, w.lat, latencyBlock)
	m.set("sim_write_amp", "ratio", w.simWA)
	m.set("sim_retention_h", "h", w.simRet)
	m.set("sim_latency_mean_us", "us", w.simLat)
}

func (w *historyWL) layers(m metrics) {
	m.set("core.versions_us", "us", ratio(us(w.versT), float64(w.versN)))
	m.set("core.refcache_hit_pct", "%", 100*ratio(float64(w.hits), float64(w.hits+w.mis)))
	m.set("flash.reads_per_version", "count", ratio(float64(w.flashReads), float64(w.versionsOut)))
	m.set("timekits.addrquery_us", "us", ratio(us(w.aqT), float64(w.aqN)))
	m.set("timekits.timequery_ms", "ms", ratio(us(w.tqT)/1e3, float64(w.tqN)))
	m.set("timekits.rollback_us", "us", ratio(us(w.rbT), float64(w.rbN)))
}

func (w *historyWL) shared(m metrics) error { return deviceShared(m, w.dev.Counters(), w.base, w.m) }

func (w *historyWL) counts() (int64, int64) { return w.calls, w.failed }
