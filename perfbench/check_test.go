package main

import (
	"testing"

	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

const testPage = 64

// fourVersions is a model with one page written at t = 10, 20, 30, 40.
func fourVersions() *model {
	m := newModel(trace.NewContentGen(testPage, trace.ContentSimilar, 7), 4)
	for i := 0; i < 4; i++ {
		_, v := m.nextContent(0)
		m.commitWrite(0, v, vclock.Time(10*(i+1)))
	}
	return m
}

// history returns the device-shaped history of page 0 holding the given
// versions (newest first), the first one live.
func history(m *model, vers ...int64) []core.Version {
	var out []core.Version
	for i, v := range vers {
		out = append(out, core.Version{TS: vclock.Time(10 * (v + 1)), Data: m.content(0, v), Live: i == 0})
	}
	return out
}

func TestCheckPageRejectsFlippedByte(t *testing.T) {
	m := fourVersions()
	want := m.content(0, 2)
	got := append([]byte(nil), want...)
	if err := checkPage(got, want, testPage); err != nil {
		t.Fatalf("identical page rejected: %v", err)
	}
	got[17] ^= 0x40
	if checkPage(got, want, testPage) == nil {
		t.Fatal("page with a flipped byte accepted")
	}
	if checkPage(make([]byte, testPage), nil, testPage) != nil {
		t.Fatal("zero page rejected for a trimmed page")
	}
	if checkPage(got, nil, testPage) == nil {
		t.Fatal("non-zero page accepted for a trimmed page")
	}
}

func TestCheckHistory(t *testing.T) {
	m := fourVersions()
	if err := checkHistory(m, 0, history(m, 3, 2, 1, 0), 0); err != nil {
		t.Fatalf("full history rejected: %v", err)
	}
	if checkHistory(m, 0, history(m, 3, 1, 0), 0) == nil {
		t.Fatal("history with a hole accepted")
	}
	// Version 1 (stamp 20) was superseded at 30: strictly after a window
	// starting at 25 it must be present; at a window start of exactly 30
	// it may be gone.
	if checkHistory(m, 0, history(m, 3, 2), 25) == nil {
		t.Fatal("history missing a version superseded after the window start accepted")
	}
	if err := checkHistory(m, 0, history(m, 3, 2), 30); err != nil {
		t.Fatalf("supersession exactly at the window start rejected: %v", err)
	}
	bad := history(m, 3, 2, 1, 0)
	bad[1].Data = m.content(0, 1)
	if checkHistory(m, 0, bad, 0) == nil {
		t.Fatal("version with another version's bytes accepted")
	}
	bad = history(m, 3, 2, 1, 0)
	bad[2].Live = true
	if checkHistory(m, 0, bad, 0) == nil {
		t.Fatal("retained version marked live accepted")
	}
}

func TestCheckRolledBack(t *testing.T) {
	m := fourVersions()
	// Roll back to t = 25, when version 1 (stamp 20) was current; the
	// device stamps the write-back somewhere in [45, 50].
	if !m.commitRollBack(0, 25, 45, 50) {
		t.Fatal("rollback over newer writes recorded no write-back")
	}
	if err := checkRolledBack(m, 0, 25, [][]byte{m.content(0, 1)}); err != nil {
		t.Fatalf("correct rollback rejected: %v", err)
	}
	if checkRolledBack(m, 0, 25, [][]byte{m.content(0, 2)}) == nil {
		t.Fatal("rollback to the wrong version accepted")
	}
	// The write-back is a new version with the old bytes and a stamp the
	// history checker takes from the interval.
	vs := append([]core.Version{{TS: 47, Data: m.content(0, 1), Live: true}}, history(m, 3, 2, 1, 0)...)
	vs[1].Live = false
	if err := checkHistory(m, 0, vs, 0); err != nil {
		t.Fatalf("history after rollback rejected: %v", err)
	}
	if err := checkVersionAt(m, 0, 35, vs[2:3]); err != nil {
		t.Fatalf("AddrQuery before the rollback rejected: %v", err)
	}
	if checkVersionAt(m, 0, 35, vs[3:4]) == nil {
		t.Fatal("AddrQuery answer of the wrong version accepted")
	}
}

func TestCheckConservation(t *testing.T) {
	c := obs.Counters{HostPageWrites: 110, GCWrites: 40, FlashPrograms: 150}
	if err := checkConservation(c, 100, 10); err != nil {
		t.Fatalf("balanced counters rejected: %v", err)
	}
	if checkConservation(c, 101, 10) == nil {
		t.Fatal("host writes off by one accepted")
	}
	c.FlashPrograms++
	if checkConservation(c, 100, 10) == nil {
		t.Fatal("flash programs off by one accepted")
	}
}

func TestCheckTimeRange(t *testing.T) {
	m := newModel(trace.NewContentGen(testPage, trace.ContentSimilar, 7), 3)
	for lpa := uint64(0); lpa < 3; lpa++ {
		for i := 0; i < 3; i++ {
			_, v := m.nextContent(lpa)
			m.commitWrite(lpa, v, vclock.Time(100*(i+1)+int(lpa)))
		}
	}
	// Range [150, 310] holds the writes at 200 and 300 of every page.
	want := []core.UpdateRecord{
		{LPA: 2, Times: []vclock.Time{302, 202}},
		{LPA: 0, Times: []vclock.Time{300, 200}},
		{LPA: 1, Times: []vclock.Time{301, 201}},
	}
	if err := checkTimeRange(m, 150, 310, want); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	extra := append(append([]core.UpdateRecord(nil), want...), core.UpdateRecord{LPA: 3, Times: []vclock.Time{250}})
	if checkTimeRange(m, 150, 310, extra) == nil {
		t.Fatal("answer with one record too many accepted")
	}
	if checkTimeRange(m, 150, 310, want[:2]) == nil {
		t.Fatal("answer missing a record accepted")
	}
	more := append([]core.UpdateRecord(nil), want...)
	more[1] = core.UpdateRecord{LPA: 0, Times: []vclock.Time{300, 200, 100}}
	if checkTimeRange(m, 150, 310, more) == nil {
		t.Fatal("answer with a stamp outside the range accepted")
	}
}

func TestCheckTimestamps(t *testing.T) {
	m := fourVersions()
	vs := history(m, 3, 2, 1)
	if err := checkTimestamps(0, []vclock.Time{40, 30, 20}, vs); err != nil {
		t.Fatalf("matching stamps rejected: %v", err)
	}
	if checkTimestamps(0, []vclock.Time{40, 30}, vs) == nil {
		t.Fatal("short timestamp list accepted")
	}
	if checkTimestamps(0, []vclock.Time{40, 31, 20}, vs) == nil {
		t.Fatal("wrong stamp accepted")
	}
}

func TestAttributeCategories(t *testing.T) {
	for fn, want := range map[string]string{
		"almanac/internal/lzf.Compress":                    "lzf",
		"almanac/internal/core.(*TimeSSD).Write":           "core",
		"almanac/internal/trace.(*ContentGen).NextVersion": "bench",
		"main.(*serveWL).round":                            "bench",
		"syscall.Syscall6":                                 "syscall",
		"runtime.mallocgc":                                 "",
		"almanac/internal/vclock.Time.Add":                 "",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestChargeTraces(t *testing.T) {
	const text = `File: perfbench
Type: samples
Duration: 402.62ms, Total samples = 6
-----------+-------------------------------------------------------
         3   runtime.memmove
             almanac/internal/flash.(*Array).Program (inline)
             almanac/internal/core.(*TimeSSD).Write
-----------+-------------------------------------------------------
         2   runtime.mallocgc
             runtime.main
-----------+-------------------------------------------------------
         1   internal/runtime/syscall.Syscall6
             almanac/internal/almaproto.(*connWriter).run
-----------+-------------------------------------------------------
`
	got, err := chargeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"flash": 3, "goruntime": 2, "syscall": 1}
	if len(got) != len(want) {
		t.Fatalf("charged %v, want %v", got, want)
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("%s charged %d samples, want %d", c, got[c], n)
		}
	}
	if _, err := chargeTraces("-----------+---\n   x   main.main\n"); err == nil {
		t.Error("bad sample count accepted")
	}
}
