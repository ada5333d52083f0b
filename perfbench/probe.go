package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/ftl"
	"almanac/internal/service"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// The probe is not a gated workload. It runs the pattern that makes a
// read return a page no write ever stored: several volumes on a 2-shard
// array, batches of about 70% reads with 16 in flight, and no op on a page
// that has another op in flight. Every read is compared with its page's
// newest acknowledged write; the result counts corrupt reads (failed) out
// of reads attempted. The retention bound is zero, so the device never
// refuses a write and the probe can run as long as asked.
const (
	probeDepth     = 16
	probeReadShare = 0.7
)

type probeBatch struct {
	ops  []service.BatchOp
	gl   []uint64 // global page of each op
	want [][]byte // expected read content
	vers []int64  // write versions
	run  service.BatchRun
}

func runProbe(seed int64, seconds float64) (*result, error) {
	fc := serveGeometry()
	fc.BlocksPerPlane = 16 // 32 MiB shards: GC recycles blocks within the in-flight window
	cfg := core.DefaultConfig(ftl.WithFlash(fc))
	cfg.MinRetention = 0
	arr, err := array.New(array.Config{Shards: serveShards, Shard: cfg})
	if err != nil {
		return nil, err
	}
	defer arr.Close()
	svc := service.New(arr)
	var vols [serveVolumes]*service.Volume
	for v := range vols {
		if vols[v], err = svc.Create(volName(v), serveKey, serveVolPages, 0, vclock.Time(vclock.Minute)); err != nil {
			return nil, err
		}
	}
	m := newModel(trace.NewContentGen(cfg.FTL.Flash.PageSize, trace.ContentSimilar, seed), serveVolumes*serveVolPages)
	rng := rand.New(rand.NewSource(seed))
	now := vclock.Time(vclock.Hour)
	busy := make([]bool, serveVolumes*serveVolPages)

	for v := range vols {
		for p := uint64(0); p < serveVolPages; p++ {
			g := uint64(v)*serveVolPages + p
			data, ver := m.nextContent(g)
			now = now.Add(serveStep)
			if _, err := vols[v].Write(p, data, now); err != nil {
				return nil, fmt.Errorf("prefill: %w", err)
			}
			m.commitWrite(g, ver, now)
		}
	}

	var reads, corrupt, writes, failed int64
	complete := func(b *probeBatch) {
		for i, r := range b.run.Complete() {
			g := b.gl[i]
			busy[g] = false
			if r.Err != nil {
				if failed == 0 {
					fmt.Fprintln(os.Stderr, "perfbench: probe: first failed op:", r.Err)
				}
				failed++
				continue
			}
			if b.ops[i].Kind == service.KindWrite {
				m.commitWrite(g, b.vers[i], b.ops[i].At)
				continue
			}
			if checkPage(r.Data, b.want[i], len(r.Data)) != nil {
				corrupt++
			}
		}
	}
	var q []*probeBatch
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		if len(q) == probeDepth {
			complete(q[0])
			q = q[1:]
		}
		v := rng.Intn(serveVolumes)
		b := &probeBatch{}
		for len(b.ops) < serveBatch {
			p := uint64(rng.Intn(serveVolPages))
			g := uint64(v)*serveVolPages + p
			if busy[g] {
				continue
			}
			busy[g] = true
			now = now.Add(serveStep)
			op := service.BatchOp{Kind: service.KindRead, LPA: p, At: now}
			var want []byte
			ver := int64(0)
			if rng.Float64() < probeReadShare {
				want = m.content(g, m.head(g))
				reads++
			} else {
				op.Kind = service.KindWrite
				op.Data, ver = m.nextContent(g)
				m.next[g] = ver + 1
				writes++
			}
			b.ops, b.gl, b.want, b.vers = append(b.ops, op), append(b.gl, g), append(b.want, want), append(b.vers, ver)
		}
		vols[v].StartBatch(b.ops, &b.run)
		q = append(q, b)
	}
	for _, b := range q {
		complete(b)
	}
	res := &result{Correct: corrupt == 0 && failed == 0, Attempted: reads, Failed: corrupt, Metrics: metrics{}}
	res.Metrics.set("corrupt_reads", "count", float64(corrupt))
	res.Metrics.set("reads", "count", float64(reads))
	res.Metrics.set("writes", "count", float64(writes))
	res.Metrics.set("failed_ops", "count", float64(failed))
	return res, nil
}
