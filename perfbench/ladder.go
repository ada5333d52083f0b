package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/vclock"
)

// The ladder drives the serve op stream (prefill, then write and read
// phases) through four entry points, each a fresh stack given the same
// stream in the same per-shard order:
//
//	rung 1: the per-shard core.TimeSSDs directly
//	rung 2: array.Submit / Cmd.Wait, serveDepth batches in flight
//	rung 3: service.Volume.StartBatch / BatchRun.Complete, same window
//	rung 4: the almaproto client over loopback TCP, same window
//
// A layer's self time per op is its rung's time minus the rung below.
// Rungs run in the order 1 2 3 4 4 3 2 1, so a drift in host speed over
// the ladder weighs on every rung alike. Every rung copies read data out
// inside its timed loop, as the wire client must.
const ladderRounds = 6

type rung interface {
	run(ops []serveOp, data [][]byte, res []opResult) error
	shard(i int) obs.Counters
	close()
}

func newRung(k int) (rung, error) {
	switch k {
	case 0:
		return newCoreRung()
	case 1:
		arr, err := array.New(array.Config{Shards: serveShards, Shard: serveConfig()})
		if err != nil {
			return nil, err
		}
		return &arrayRung{arr: arr}, nil
	case 2:
		return newServiceRung()
	default:
		return newTCPRung()
	}
}

type coreRung struct{ devs [serveShards]*core.TimeSSD }

func newCoreRung() (*coreRung, error) {
	r := &coreRung{}
	for i := range r.devs {
		d, err := core.New(serveConfig())
		if err != nil {
			return nil, err
		}
		r.devs[i] = d
	}
	return r, nil
}

func (r *coreRung) run(ops []serveOp, data [][]byte, res []opResult) error {
	for i, o := range ops {
		g := o.global()
		dev, local := r.devs[g%serveShards], g/serveShards
		if o.kind == service.KindWrite {
			done, err := dev.Write(local, data[i], o.at)
			res[i] = opResult{done: done, err: err}
			continue
		}
		b, done, err := dev.Read(local, o.at)
		res[i] = opResult{data: append([]byte(nil), b...), done: done, err: err}
	}
	return nil
}

func (r *coreRung) shard(i int) obs.Counters { return r.devs[i].Counters() }
func (r *coreRung) close()                   {}

type arrayRung struct {
	arr   *array.Array
	slots [serveDepth][]array.Cmd
	first [serveDepth]int
	busy  [serveDepth]bool
}

func (r *arrayRung) run(ops []serveOp, data [][]byte, res []opResult) error {
	n := 0
	drain := func(s int) {
		for i := range r.slots[s] {
			c := &r.slots[s][i]
			c.Wait()
			res[r.first[s]+i] = opResult{data: append([]byte(nil), c.Out...), done: c.Done, err: c.Err}
		}
		r.busy[s] = false
	}
	err := forBatches(ops, func(first, end int) error {
		s := n % serveDepth
		n++
		if r.busy[s] {
			drain(s)
		}
		if cap(r.slots[s]) < end-first {
			r.slots[s] = make([]array.Cmd, serveBatch)
		}
		r.slots[s] = r.slots[s][:end-first]
		r.first[s], r.busy[s] = first, true
		for i := first; i < end; i++ {
			c := &r.slots[s][i-first]
			if ops[i].kind == service.KindWrite {
				c.SetWrite(ops[i].global(), data[i], ops[i].at)
			} else {
				c.SetRead(ops[i].global(), ops[i].at)
			}
			if err := r.arr.Submit(c); err != nil {
				return err
			}
		}
		return nil
	})
	for k := 0; k < serveDepth; k++ {
		if s := (n + k) % serveDepth; r.busy[s] {
			drain(s)
		}
	}
	return err
}

func (r *arrayRung) shard(i int) obs.Counters { return r.arr.ShardSnapshot(i).C }
func (r *arrayRung) close()                   { _ = r.arr.Close() }

type serviceRung struct {
	arr   *array.Array
	vols  [serveVolumes]*service.Volume
	runs  [serveDepth]service.BatchRun
	ops   [serveDepth][]service.BatchOp
	first [serveDepth]int
	busy  [serveDepth]bool
}

func newServiceRung() (*serviceRung, error) {
	arr, err := array.New(array.Config{Shards: serveShards, Shard: serveConfig()})
	if err != nil {
		return nil, err
	}
	r := &serviceRung{arr: arr}
	svc := service.New(arr)
	for v := range r.vols {
		if r.vols[v], err = svc.Create(volName(v), serveKey, serveVolPages, 0, vclock.Time(vclock.Minute)); err != nil {
			_ = arr.Close()
			return nil, err
		}
	}
	return r, nil
}

func (r *serviceRung) run(ops []serveOp, data [][]byte, res []opResult) error {
	n := 0
	drain := func(s int) {
		for i, br := range r.runs[s].Complete() {
			res[r.first[s]+i] = opResult{data: append([]byte(nil), br.Data...), done: br.Done, err: br.Err}
		}
		r.busy[s] = false
	}
	err := forBatches(ops, func(first, end int) error {
		s := n % serveDepth
		n++
		if r.busy[s] {
			drain(s)
		}
		r.ops[s] = r.ops[s][:0]
		for i := first; i < end; i++ {
			o := ops[i]
			r.ops[s] = append(r.ops[s], service.BatchOp{Kind: o.kind, LPA: o.lpa, Data: data[i], At: o.at})
		}
		r.first[s], r.busy[s] = first, true
		r.vols[ops[first].vol].StartBatch(r.ops[s], &r.runs[s])
		return nil
	})
	for k := 0; k < serveDepth; k++ {
		if s := (n + k) % serveDepth; r.busy[s] {
			drain(s)
		}
	}
	return err
}

func (r *serviceRung) shard(i int) obs.Counters { return r.arr.ShardSnapshot(i).C }
func (r *serviceRung) close()                   { _ = r.arr.Close() }

type tcpRung struct{ *tcpStack }

func newTCPRung() (*tcpRung, error) {
	s, err := newTCPStack()
	if err != nil {
		return nil, err
	}
	return &tcpRung{s}, nil
}

func (r *tcpRung) run(ops []serveOp, data [][]byte, res []opResult) error {
	return r.tcpStack.run(ops, data, res, nil)
}

// sameShardState compares the counters that fix a shard's modeled state.
func sameShardState(a, b obs.Counters) bool {
	return a.HostPageWrites == b.HostPageWrites && a.HostPageReads == b.HostPageReads &&
		a.FlashPrograms == b.FlashPrograms && a.FlashReads == b.FlashReads &&
		a.FlashErases == b.FlashErases && a.GCWrites == b.GCWrites
}

// ladder runs the four rungs and reports the serving layers' metrics.
func ladder(seed int64, m metrics) error {
	var (
		t      [2][4]time.Duration // per pass and rung
		ops    [2][4]int64
		ref    [serveShards]obs.Counters
		haveRf bool
		wire   obs.WireCounters
		skew   float64
	)
	for i, k := range []int{0, 1, 2, 3, 3, 2, 1, 0} {
		pass := i / 4
		st, err := newRung(k)
		if err != nil {
			return fmt.Errorf("rung %d: %w", k+1, err)
		}
		err = func() error {
			defer st.close()
			g, err := newStreamGen(seed * 64)
			if err != nil {
				return err
			}
			pre := g.prefill()
			res := make([]opResult, len(pre))
			if err := st.run(pre, g.payloads(pre), res); err != nil {
				return err
			}
			if _, err := g.commit(pre, res); err != nil {
				return err
			}
			var w0 obs.WireCounters
			if tr, ok := st.(*tcpRung); ok {
				w0 = tr.srv.WireSnapshot()
			}
			for r := 0; r < ladderRounds; r++ {
				g.startRound(r)
				writes, reads := g.phases(r)
				for _, phase := range [][]serveOp{writes, reads} {
					data := g.payloads(phase)
					res := make([]opResult, len(phase))
					t0 := time.Now()
					err := st.run(phase, data, res)
					t[pass][k] += time.Since(t0)
					ops[pass][k] += int64(len(phase))
					if err != nil {
						return err
					}
					if failed, err := g.commit(phase, res); err != nil || failed > 0 {
						return fmt.Errorf("%d failed ops, check: %v", failed, err)
					}
				}
			}
			var per [serveShards]obs.Counters
			var total, most float64
			for i := range per {
				per[i] = st.shard(i)
				n := float64(per[i].HostPageWrites + per[i].HostPageReads)
				total += n
				most = max(most, n)
			}
			if !haveRf {
				ref, haveRf = per, true
			}
			for i := range per {
				if !sameShardState(per[i], ref[i]) {
					return fmt.Errorf("shard %d state differs from rung 1: the rungs did not run the same per-shard order", i)
				}
			}
			if tr, ok := st.(*tcpRung); ok {
				w1 := tr.srv.WireSnapshot()
				wire.Add(obs.WireCounters{
					FramesIn: w1.FramesIn - w0.FramesIn, BytesIn: w1.BytesIn - w0.BytesIn,
					FramesOut: w1.FramesOut - w0.FramesOut, BytesOut: w1.BytesOut - w0.BytesOut,
					Writes: w1.Writes - w0.Writes, Coalesced: w1.Coalesced - w0.Coalesced,
				})
				skew = most / (total / serveShards)
			}
			return nil
		}()
		if err != nil {
			return fmt.Errorf("rung %d: %w", k+1, err)
		}
		debug.FreeOSMemory() // hold one stack's arenas at a time
	}
	// Each pass's self times go to standard error, so the noise of the
	// subtraction can be read off the difference between the passes.
	for p := range t {
		self := func(k int) float64 { return us(t[p][k])/float64(ops[p][k]) - us(t[p][k-1])/float64(ops[p][k-1]) }
		fmt.Fprintf(os.Stderr, "ladder pass %d: core %.3f, array %.3f, service %.3f, almaproto %.3f us/op\n",
			p+1, us(t[p][0])/float64(ops[p][0]), self(1), self(2), self(3))
	}
	per := func(k int) float64 { return us(t[0][k]+t[1][k]) / float64(ops[0][k]+ops[1][k]) }
	m.set("core.serve_us_per_op", "us", per(0))
	m.set("array.self_us_per_op", "us", per(1)-per(0))
	m.set("service.self_us_per_op", "us", per(2)-per(1))
	m.set("almaproto.self_us_per_op", "us", per(3)-per(2))
	m.set("almaproto.frames_per_write", "frames", ratio(float64(wire.FramesOut), float64(wire.Writes)))
	m.set("almaproto.bytes_per_op", "B", ratio(float64(wire.BytesIn+wire.BytesOut), float64(ops[0][3]+ops[1][3])))
	m.set("array.shard_skew", "ratio", skew)
	return nil
}
