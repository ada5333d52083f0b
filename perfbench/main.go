// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in its own process from a seed, checks every output the
// program returns against values it computes on its own, and prints the
// result as one JSON object on the last line of standard output.
//
//	perfbench -workload replay|serve|history -seed N -seconds S -trace 0|1
//	perfbench -workload probe -seed N -seconds S
//	perfbench ... -procs 0   (Go's default GOMAXPROCS instead of one P)
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it prints
// the per-layer metrics of a traced run instead (see README.md). The probe
// workload is not gated: it runs reads and writes mixed on one shard queue
// and counts reads that return a page no write ever stored.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// procStart approximates the process start: package variables initialise
// before main runs, so setup_s covers the whole cold set-up.
var procStart = time.Now()

// traceSegment is how long the traced run stays in one mode before it
// switches between untraced and traced rounds.
const traceSegment = 100 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload is one named input family. setup builds the program under test
// and its prefill; round runs one whole round of the timed operations;
// finish runs the final checks. traced selects the traced form of a round.
type workload interface {
	setup(seed int64) error
	// minRounds is the fixed modeled span: the sim_* metrics are read
	// after exactly this many rounds, so they repeat for a given seed.
	minRounds() int
	// more reports whether round r can run (replay ends with its trace).
	more(r int) bool
	round(r int, traced bool) error
	// simCut records the modeled metrics at the end of the fixed span.
	simCut()
	finish() error
	// endToEnd reports the untraced metrics; layers the per-layer ones
	// this workload owns, from its traced rounds.
	endToEnd(m metrics)
	layers(m metrics)
	// shared reports the per-layer metrics every workload has: device
	// counters and the codecs run on its own write stream.
	shared(m metrics) error
	counts() (attempted, failed int64)
}

// preparer is a workload with untimed work to do before some rounds.
type preparer interface{ prepare(r int) error }

func newWorkload(name string) (workload, error) {
	switch name {
	case "replay":
		return &replayWL{}, nil
	case "serve":
		return &serveWL{}, nil
	case "history":
		return &historyWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want replay, serve or history)", name)
}

// runRounds runs rounds until both the fixed modeled span is done and the
// measuring time is up. In traced mode the run alternates untraced and
// traced segments of whole rounds, each about traceSegment long, so the
// two can be compared within one process. around, when set, wraps each
// round (the traced run profiles and times rounds through it).
func runRounds(w workload, seconds float64, tracedMode bool, around func(r int, traced bool, round func() error) error) error {
	start := time.Now()
	seg, traced := start, false
	for r := 0; w.more(r); r++ {
		if r >= w.minRounds() && time.Since(start).Seconds() >= seconds {
			break
		}
		if tracedMode && time.Since(seg) >= traceSegment {
			seg, traced = time.Now(), !traced
		}
		var err error
		if p, ok := w.(preparer); ok {
			err = p.prepare(r)
		}
		round := func() error { return w.round(r, traced) }
		switch {
		case err != nil:
		case around != nil:
			err = around(r, traced, round)
		default:
			err = round()
		}
		if err != nil {
			return errors.Join(fmt.Errorf("round %d: %w", r, err), w.finish())
		}
		if r+1 == w.minRounds() {
			w.simCut()
		}
	}
	return w.finish()
}

func runPlain(name string, seed int64, seconds float64) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(procStart).Seconds()
	res := &result{Correct: true, Metrics: metrics{}}
	if err := runRounds(w, seconds, false, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	w.endToEnd(res.Metrics)
	res.Metrics.set("setup_s", "s", setup)
	res.Metrics.set("peak_rss_mib", "MiB", peakRSSMiB())
	res.Attempted, res.Failed = w.counts()
	return res, nil
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	name := flag.String("workload", "", "replay, serve, history, or probe (not gated)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	profDir := flag.String("profile-dir", "", "directory the traced run writes its CPU profiles to")
	procs := flag.Int("procs", 1, "Go Ps (GOMAXPROCS) the run uses")
	flag.Parse()
	// One P by default: on a small shared VM, how the host schedules
	// several vCPUs moved the serve figures by a factor of two between
	// identical runs. With one P the goroutines of the stack hand off on
	// one thread and the figures measure the code path, not the host's
	// scheduling; -procs 0 keeps Go's default (see README.md).
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	var res *result
	var err error
	switch {
	case *name == "probe":
		res, err = runProbe(*seed, *seconds)
	case *trace == 1:
		res, err = runTraced(*name, *seed, *seconds, *profDir)
	default:
		res, err = runPlain(*name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printResult writes the result as one JSON line (encoding/json sorts
// the metric names, so two runs diff cleanly).
func printResult(r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}
