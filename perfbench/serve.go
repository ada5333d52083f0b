package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"almanac/internal/almaproto"
	"almanac/internal/array"
	"almanac/internal/core"
	"almanac/internal/flash"
	"almanac/internal/ftl"
	"almanac/internal/obs"
	"almanac/internal/service"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// serve: the almanacd stack in one process — almaproto v4 over loopback
// TCP, the volume service, a 2-shard array — serving several tenant
// volumes to one client that keeps a fixed number of OpBatch frames in
// flight (a closed loop). Each tenant's requests come from the usr profile
// of trace.NamedSpec (user home directories: 60% writes, 15% of a volume
// taking 70% of the accesses, 3-page mean requests); the tenants' streams
// are merged by arrival. Each round takes the next requests of the merged
// stream and runs their writes as one phase and their reads, verified, as
// the next; then a VolRollBack of one volume, after which that volume and
// its neighbour are read back and verified. Reads and writes never share a
// phase: a read that shares a shard queue with a write can return a page
// no write stored (see README.md).
const (
	serveShards    = 2
	serveVolumes   = 6
	serveVolPages  = 1024
	serveBatch     = 32 // ops per OpBatch frame
	serveDepth     = 8  // frames in flight
	serveProfile   = "usr"
	serveRoundReqs = 1200 // requests per round, all tenants
	serveStep      = 200 * vclock.Microsecond
	serveRoundGap  = 2 * vclock.Hour
	serveMinRet    = 6 * vclock.Hour
	// serveEpochRounds rounds run on one stack, which then makes way for
	// a fresh one, so no shard ever needs GC (see README.md). The first
	// epoch is the fixed modeled span.
	serveEpochRounds = 12
	serveKey         = "k"
	// serveLatencyBlock is how many frame round trips one latency
	// percentile is taken over (see latencyBlock).
	serveLatencyBlock = 100
)

func serveGeometry() flash.Config {
	return flash.DefaultConfig()
}

func serveConfig() core.Config {
	cfg := core.DefaultConfig(ftl.WithFlash(serveGeometry()))
	cfg.MinRetention = serveMinRet
	return cfg
}

func volName(v int) string { return fmt.Sprintf("vol%d", v) }

// serveOp is one volume page operation of the generated stream.
type serveOp struct {
	vol  int
	lpa  uint64 // volume-relative
	kind service.OpKind
	ver  int64 // content version, for writes
	at   vclock.Time
}

func (o serveOp) global() uint64 { return uint64(o.vol)*serveVolPages + o.lpa }

// tenantReq is one request of a tenant's trace.
type tenantReq struct {
	vol int
	trace.Request
}

// streamGen produces the serve op stream of one epoch from a seed. Every
// consumer (the TCP client, each rung of the ladder) runs its own
// generator, so all see the same stream; the generator's model records
// what the consumer acknowledged and checks what it read. Virtual time is
// the generator's own: serveStep per op, rounds serveRoundGap apart.
type streamGen struct {
	m    *model
	reqs []tenantReq // serveEpochRounds × serveRoundReqs, by arrival
	now  vclock.Time
}

func newStreamGen(seed int64) (*streamGen, error) {
	gen := trace.NewContentGen(serveGeometry().PageSize, trace.ContentSimilar, seed)
	g := &streamGen{m: newModel(gen, serveVolumes*serveVolPages), now: vclock.Time(vclock.Hour)}
	for v := 0; v < serveVolumes; v++ {
		spec, err := trace.NamedSpec(serveProfile, serveVolPages, 1, 1, seed*serveVolumes+int64(v))
		if err != nil {
			return nil, err
		}
		spec.Requests = serveEpochRounds * serveRoundReqs / serveVolumes
		// No trims: VolRollBack(t) does not restore a page trimmed at t
		// (see CHANGES.md, FOUND), so a trim is kept as the write it would
		// otherwise be drawn as.
		spec.TrimRatio = 0
		reqs, err := trace.Generate(spec)
		if err != nil {
			return nil, err
		}
		for _, r := range reqs {
			g.reqs = append(g.reqs, tenantReq{vol: v, Request: r})
		}
	}
	sort.SliceStable(g.reqs, func(i, j int) bool { return g.reqs[i].At < g.reqs[j].At })
	return g, nil
}

func (g *streamGen) tick() vclock.Time {
	g.now = g.now.Add(serveStep)
	return g.now
}

// startRound moves virtual time to round r's slot and returns the instant
// just before the round's first op.
func (g *streamGen) startRound(r int) vclock.Time {
	if slot := vclock.Time(vclock.Hour).Add(vclock.Duration(r+1) * serveRoundGap); slot > g.now {
		g.now = slot
	}
	return g.now
}

func (g *streamGen) write(v int, p uint64) serveOp {
	o := serveOp{vol: v, lpa: p, kind: service.KindWrite, at: g.tick()}
	o.ver = g.m.next[o.global()]
	g.m.next[o.global()]++
	return o
}

// prefill writes every volume page once, in page order.
func (g *streamGen) prefill() []serveOp {
	ops := make([]serveOp, 0, serveVolumes*serveVolPages)
	for v := 0; v < serveVolumes; v++ {
		for p := uint64(0); p < serveVolPages; p++ {
			ops = append(ops, g.write(v, p))
		}
	}
	return ops
}

// phases splits round r's requests into page ops: the writes in arrival
// order, then the reads in arrival order.
func (g *streamGen) phases(r int) (writes, reads []serveOp) {
	for _, q := range g.reqs[r*serveRoundReqs : (r+1)*serveRoundReqs] {
		for p := q.LPA; p < q.LPA+uint64(q.Pages); p++ {
			if q.Op == trace.OpRead {
				reads = append(reads, serveOp{vol: q.vol, lpa: p, kind: service.KindRead})
			} else {
				writes = append(writes, g.write(q.vol, p))
			}
		}
	}
	for i := range reads {
		reads[i].at = g.tick()
	}
	return writes, reads
}

// readVolumes reads every page of the given volumes in order.
func (g *streamGen) readVolumes(vols ...int) []serveOp {
	var ops []serveOp
	for _, v := range vols {
		for p := uint64(0); p < serveVolPages; p++ {
			ops = append(ops, serveOp{vol: v, lpa: p, kind: service.KindRead, at: g.tick()})
		}
	}
	return ops
}

// payloads generates a phase's write content before the phase is timed.
func (g *streamGen) payloads(ops []serveOp) [][]byte {
	data := make([][]byte, len(ops))
	for i, o := range ops {
		if o.kind == service.KindWrite {
			data[i] = g.m.content(o.global(), o.ver)
		}
	}
	return data
}

// opResult is what a consumer reports per op: read bytes (a copy the
// consumer owns), the modeled completion and the error.
type opResult struct {
	data []byte
	done vclock.Time
	err  error
}

// commit checks a completed phase against the model and records its
// writes: every write must be acknowledged, and every read must hold
// exactly the content of its page's newest acknowledged write.
func (g *streamGen) commit(ops []serveOp, res []opResult) (failed int64, err error) {
	for i, o := range ops {
		r := res[i]
		if r.err != nil {
			failed++
			continue
		}
		lpa := o.global()
		switch o.kind {
		case service.KindWrite:
			g.m.commitWrite(lpa, o.ver, o.at)
		case service.KindRead:
			if e := checkPage(r.data, g.m.content(lpa, g.m.head(lpa)), len(r.data)); e != nil && err == nil {
				err = fmt.Errorf("read vol %d page %d: %w", o.vol, o.lpa, e)
			}
		}
	}
	return failed, err
}

// forBatches cuts ops into OpBatch-sized batches of one volume each.
func forBatches(ops []serveOp, fn func(first, end int) error) error {
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && j-i < serveBatch && ops[j].vol == ops[i].vol {
			j++
		}
		if err := fn(i, j); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// tcpStack is the serving stack with one client connection over loopback
// TCP: the serve workload, and rung 4 of the ladder.
type tcpStack struct {
	arr    *array.Array
	srv    *almaproto.Server
	ln     net.Listener
	srvErr chan error
	cli    *almaproto.Client
	vols   [serveVolumes]uint32
	ops    []service.BatchOp
}

func newTCPStack() (*tcpStack, error) {
	arr, err := array.New(array.Config{Shards: serveShards, Shard: serveConfig()})
	if err != nil {
		return nil, err
	}
	s := &tcpStack{arr: arr, srv: almaproto.NewServiceServer(service.New(arr)), srvErr: make(chan error, 1)}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = arr.Close()
		return nil, err
	}
	go func() { s.srvErr <- s.srv.Serve(s.ln) }()
	if err := s.connect(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *tcpStack) connect() error {
	var err error
	if s.cli, err = almaproto.Dial(s.ln.Addr().String()); err != nil {
		return err
	}
	if _, err = s.cli.Identify(); err != nil {
		return err
	}
	at := vclock.Time(vclock.Minute)
	for v := range s.vols {
		if _, err := s.cli.VolCreate(volName(v), serveKey, serveVolPages, 0, at); err != nil {
			return err
		}
		info, err := s.cli.VolAttach(volName(v), serveKey, at)
		if err != nil {
			return err
		}
		s.vols[v] = info.ID
	}
	return nil
}

// close stops the client, the server and the array, and waits for the
// server loop to return.
func (s *tcpStack) close() {
	if s.cli != nil {
		_ = s.cli.Close()
	}
	_ = s.srv.Close()
	<-s.srvErr
	_ = s.arr.Close()
}

func (s *tcpStack) shard(i int) obs.Counters { return s.arr.ShardSnapshot(i).C }

// run executes ops as OpBatch frames with serveDepth frames in flight.
// lat, when non-nil, receives each frame's round trip in µs.
func (s *tcpStack) run(ops []serveOp, data [][]byte, res []opResult, lat *[]float64) error {
	type inflight struct {
		p     *almaproto.PendingBatch
		first int
		t0    time.Time
	}
	var q []inflight
	wait := func() error {
		f := q[0]
		q = q[1:]
		out, err := f.p.Wait()
		if lat != nil {
			*lat = append(*lat, us(time.Since(f.t0)))
		}
		if err != nil {
			return err
		}
		for i, r := range out {
			res[f.first+i] = opResult{data: r.Data, done: r.Done, err: r.Err}
		}
		return nil
	}
	err := forBatches(ops, func(first, end int) error {
		s.ops = s.ops[:0]
		for i := first; i < end; i++ {
			o := ops[i]
			s.ops = append(s.ops, service.BatchOp{Kind: o.kind, LPA: o.lpa, Data: data[i], At: o.at})
		}
		if len(q) == serveDepth {
			if err := wait(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		p, err := s.cli.SubmitBatch(s.vols[ops[first].vol], s.ops)
		if err != nil {
			return err
		}
		q = append(q, inflight{p: p, first: first, t0: t0})
		return nil
	})
	for err == nil && len(q) > 0 {
		err = wait()
	}
	return err
}

type serveWL struct {
	seed  int64
	epoch int
	g     *streamGen
	st    *tcpStack

	phaseT  time.Duration // wall time of every phase
	pageOps int64
	lat     []float64 // µs per frame round trip
	rates   []float64 // page ops per second of phase time, per round
	rbCalls int64
	failed  int64

	sim     bool
	base    obs.Counters
	simResp vclock.Duration
	simOps  int64
	simWA   float64
	simRet  float64
	simLat  float64
}

func (w *serveWL) setup(seed int64) error {
	w.seed = seed
	if err := w.startEpoch(); err != nil {
		return err
	}
	w.sim = true
	return nil
}

// startEpoch builds a fresh stack and stream for the next epoch and
// prefills it. Each epoch's stream has a seed of its own.
func (w *serveWL) startEpoch() error {
	g, err := newStreamGen(w.seed*64 + int64(w.epoch))
	if err != nil {
		return err
	}
	st, err := newTCPStack()
	if err != nil {
		return err
	}
	ops := g.prefill()
	res := make([]opResult, len(ops))
	err = st.run(ops, g.payloads(ops), res, nil)
	if err == nil {
		_, err = g.commit(ops, res)
	}
	if err != nil {
		st.close()
		return fmt.Errorf("epoch %d prefill: %w", w.epoch, err)
	}
	w.g, w.st, w.base = g, st, st.arr.StatsView()
	return nil
}

// endEpoch checks the epoch's conservation across layers and closes its
// stack.
func (w *serveWL) endEpoch() error {
	defer w.st.close()
	if err := checkConservation(w.st.arr.StatsView(), w.g.m.acked, w.g.m.rbWrites); err != nil {
		return fmt.Errorf("epoch %d: %w", w.epoch, err)
	}
	return nil
}

func (w *serveWL) minRounds() int  { return serveEpochRounds }
func (w *serveWL) more(r int) bool { return true }

// prepare replaces the stack at an epoch boundary, outside the timed
// rounds. The old stack's memory is collected first, so the new one
// reuses it.
func (w *serveWL) prepare(r int) error {
	if r == 0 || r%serveEpochRounds != 0 {
		return nil
	}
	err := w.endEpoch()
	w.g, w.st = nil, nil // closed: finish must not close it again
	if err != nil {
		return err
	}
	runtime.GC()
	w.epoch++
	return w.startEpoch()
}

// phase runs ops through the TCP stack, timed, then checks and commits.
func (w *serveWL) phase(ops []serveOp) error {
	data := w.g.payloads(ops)
	res := make([]opResult, len(ops))
	t0 := time.Now()
	err := w.st.run(ops, data, res, &w.lat)
	w.phaseT += time.Since(t0)
	w.pageOps += int64(len(ops))
	if err != nil {
		return err
	}
	if w.sim {
		for i := range res {
			if res[i].err == nil {
				w.simResp += res[i].done.Sub(ops[i].at)
			}
		}
		w.simOps += int64(len(res))
	}
	failed, err := w.g.commit(ops, res)
	w.failed += failed
	return err
}

func (w *serveWL) round(r int, _ bool) error {
	g := w.g
	ops0, t0 := w.pageOps, w.phaseT
	defer func() { w.rates = append(w.rates, ratio(float64(w.pageOps-ops0), (w.phaseT-t0).Seconds())) }()
	r %= serveEpochRounds
	t := g.startRound(r)
	// Collect the previous round's garbage (payloads, read copies, the
	// stack's own) here, outside the timed phases: a collection inside a
	// phase stalls every frame in flight on the one P, and whether a block
	// of frames holds one decided its p99.
	runtime.GC()
	writes, reads := g.phases(r)
	if err := w.phase(writes); err != nil {
		return err
	}
	if err := w.phase(reads); err != nil {
		return err
	}
	vol := r % serveVolumes
	at := g.tick()
	rb := time.Now()
	_, done, err := w.st.cli.VolRollBack(w.st.vols[vol], t, at)
	w.phaseT += time.Since(rb)
	w.rbCalls++
	if err != nil {
		w.failed++
		return fmt.Errorf("rollback vol %d to %d: %w", vol, t, err)
	}
	for p := uint64(0); p < serveVolPages; p++ {
		g.m.commitRollBack(uint64(vol)*serveVolPages+p, t, at, done)
	}
	if done > g.now {
		g.now = done
	}
	// The rolled-back volume must read as it was at t, its neighbour as
	// it was before the rollback: both are the model's current content.
	return w.phase(g.readVolumes(vol, (vol+1)%serveVolumes))
}

func (w *serveWL) simCut() {
	c := w.st.arr.StatsView()
	w.simWA = ratio(float64(c.FlashPrograms-w.base.FlashPrograms), float64(c.HostPageWrites-w.base.HostPageWrites))
	w.simRet = w.g.now.Sub(w.st.arr.RetentionWindowStart()).Hours()
	w.simLat = ratio(float64(w.simResp)/1e3, float64(w.simOps))
	w.sim = false
}

func (w *serveWL) finish() error {
	if w.st == nil {
		return nil
	}
	return w.endEpoch()
}

func (w *serveWL) endToEnd(m metrics) {
	hostMetrics(m, w.rates, w.lat, serveLatencyBlock)
	m.set("sim_write_amp", "ratio", w.simWA)
	m.set("sim_retention_h", "h", w.simRet)
	m.set("sim_latency_mean_us", "us", w.simLat)
}

func (w *serveWL) layers(m metrics) {}

// shared reports the device counters of the last epoch's timed rounds.
func (w *serveWL) shared(m metrics) error {
	if w.st == nil {
		return errors.New("no epoch ran to its end")
	}
	return deviceShared(m, w.st.arr.StatsView(), w.base, w.g.m)
}

func (w *serveWL) counts() (int64, int64) { return w.pageOps + w.rbCalls, w.failed }
