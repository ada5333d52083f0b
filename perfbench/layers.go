package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"almanac/internal/delta"
	"almanac/internal/flash"
	"almanac/internal/lzf"
	"almanac/internal/obs"
)

// deviceShared reports the per-layer metrics every workload has: the
// device counters over its timed part (c minus the post-setup base) and
// the codecs run on consecutive versions from its own write stream.
func deviceShared(m metrics, c, base obs.Counters, mod *model) error {
	hw := float64(c.HostPageWrites - base.HostPageWrites)
	m.set("core.gc_writes_per_host_write", "ratio", ratio(float64(c.GCWrites-base.GCWrites), hw))
	m.set("core.window_drops", "count", float64(c.WindowDrops-base.WindowDrops))
	m.set("ftl.gc_runs_per_kwrite", "count", 1000*ratio(float64(c.GCRuns-base.GCRuns), hw))
	m.set("flash.erases_per_host_write", "ratio", ratio(float64(c.FlashErases-base.FlashErases), hw))
	return codecMetrics(m, mod)
}

const (
	codecPairs   = 256
	codecMinTime = 150 * time.Millisecond
)

// codecMetrics times delta and LZF on pairs of consecutive versions of the
// same page, drawn from the workload's own log: the pairs GC and idle
// compression encode (the older version against its successor).
func codecMetrics(m metrics, mod *model) error {
	rng := rand.New(rand.NewSource(int64(len(mod.log))))
	type pair struct{ old, ref []byte }
	var pairs []pair
	for tries := 0; len(pairs) < codecPairs && tries < 64*codecPairs; tries++ {
		lpa := uint64(rng.Intn(len(mod.log)))
		if n := mod.next[lpa]; n >= 2 {
			v := 1 + rng.Int63n(n-1)
			pairs = append(pairs, pair{mod.content(lpa, v-1), mod.content(lpa, v)})
		}
	}
	if len(pairs) == 0 {
		return errors.New("codec: the write stream has no page with two versions")
	}
	pageSize := len(pairs[0].old)
	encs := make([]delta.Encoding, len(pairs))
	payloads := make([][]byte, len(pairs))
	xors := make([][]byte, len(pairs))
	comp := make([][]byte, len(pairs))
	var encBytes int
	for i, p := range pairs {
		enc, out := delta.Encode(nil, p.old, p.ref)
		encs[i], payloads[i] = enc, out
		encBytes += len(out)
		x := make([]byte, pageSize)
		for j := range x {
			x[j] = p.old[j] ^ p.ref[j]
		}
		xors[i] = x
		comp[i] = lzf.Compress(nil, x)
	}
	var dst []byte
	encT, encN := timeLoop(func() {
		for _, p := range pairs {
			_, dst = delta.Encode(dst[:0], p.old, p.ref)
		}
	}, len(pairs))
	var decErr error
	decT, decN := timeLoop(func() {
		for i, p := range pairs {
			got, err := delta.Decode(encs[i], payloads[i], p.ref, pageSize)
			if err != nil || !bytes.Equal(got, p.old) {
				decErr = fmt.Errorf("delta round trip of pair %d failed: %v", i, err)
			}
		}
	}, len(pairs))
	cT, cN := timeLoop(func() {
		for _, x := range xors {
			dst = lzf.Compress(dst[:0], x)
		}
	}, len(pairs))
	dT, dN := timeLoop(func() {
		for i := range comp {
			dst, _ = lzf.Decompress(dst[:0], comp[i], pageSize)
		}
	}, len(pairs))
	m.set("delta.encode_us_per_page", "us", us(encT)/float64(encN))
	m.set("delta.decode_us_per_page", "us", us(decT)/float64(decN))
	m.set("delta.ratio", "ratio", float64(encBytes)/float64(len(pairs)*pageSize))
	mb := float64(pageSize) / 1e6
	m.set("lzf.compress_mb_per_s", "MB/s", float64(cN)*mb/cT.Seconds())
	m.set("lzf.decompress_mb_per_s", "MB/s", float64(dN)*mb/dT.Seconds())
	return decErr
}

// timeLoop repeats fn (n pages per call) until codecMinTime has passed and
// returns the time and pages done.
func timeLoop(fn func(), n int) (time.Duration, int) {
	var total time.Duration
	pages := 0
	for total < codecMinTime {
		t0 := time.Now()
		fn()
		total += time.Since(t0)
		pages += n
	}
	return total, pages
}

// deviceNewMS times building the flash arena of the workload's geometry,
// the allocation every device build pays (median of three).
func deviceNewMS(fc flash.Config) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := flash.New(fc); err != nil {
			return 0, err
		}
		xs = append(xs, us(time.Since(t0))/1e3)
	}
	return quantile(xs, 0.5), nil
}
