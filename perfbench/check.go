package main

import (
	"bytes"
	"fmt"
	"sort"

	"almanac/internal/core"
	"almanac/internal/obs"
	"almanac/internal/vclock"
)

// The checkers below compare what the program returned with values the
// benchmark computed on its own (the model's log and trace.ContentGen), or
// with properties the paper's method must have. They run outside every
// timed call.

// checkPage reports whether got is exactly want; a nil want is a zero page.
func checkPage(got, want []byte, pageSize int) error {
	if len(got) != pageSize {
		return fmt.Errorf("page is %d bytes, want %d", len(got), pageSize)
	}
	if want == nil {
		for i, b := range got {
			if b != 0 {
				return fmt.Errorf("byte %d is %#x in a page that should read as zeros", i, b)
			}
		}
		return nil
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("byte %d is %#x, want %#x", i, got[i], want[i])
	}
	return nil
}

// writeIndex returns the index in l of the write whose stamp can be ts,
// searching below limit, or -1.
func writeIndex(l []change, ts vclock.Time, limit int) int {
	for i := limit - 1; i >= 0; i-- {
		c := l[i]
		if c.ver != trimmed && c.lo <= ts && ts <= c.hi {
			return i
		}
	}
	return -1
}

// checkHistory checks one page's version history as Versions returned it:
// newest first, strictly decreasing stamps, only the head live (and live
// exactly when the page is mapped), every version byte-equal to the
// logged one with that stamp, none skipped, and every version superseded
// strictly after windowStart present (§3.5: no false negatives).
func checkHistory(m *model, lpa uint64, got []core.Version, windowStart vclock.Time) error {
	l := m.log[lpa]
	limit := len(l)
	live := len(l) > 0 && l[len(l)-1].ver != trimmed
	if live && len(got) == 0 {
		return fmt.Errorf("lpa %d: no versions for a live page", lpa)
	}
	prev := -1
	for i, v := range got {
		if i > 0 && v.TS >= got[i-1].TS {
			return fmt.Errorf("lpa %d: version %d stamp %d not below %d", lpa, i, v.TS, got[i-1].TS)
		}
		if v.Live != (i == 0 && live) {
			return fmt.Errorf("lpa %d: version %d live=%v", lpa, i, v.Live)
		}
		k := writeIndex(l, v.TS, limit)
		if k < 0 {
			return fmt.Errorf("lpa %d: version %d stamp %d matches no logged write", lpa, i, v.TS)
		}
		if prev < 0 {
			// The newest returned version must be the newest write.
			if n := lastWrite(l); k != n {
				return fmt.Errorf("lpa %d: history starts at write %d, newest is %d", lpa, k, n)
			}
		} else if n := prevWrite(l, prev); k != n {
			return fmt.Errorf("lpa %d: history skips from write %d to %d, missing %d", lpa, prev, k, n)
		}
		if err := checkPage(v.Data, m.content(lpa, l[k].ver), len(v.Data)); err != nil {
			return fmt.Errorf("lpa %d: version %d (stamp %d): %w", lpa, i, v.TS, err)
		}
		prev, limit = k, k
	}
	// Every write older than the oldest returned one whose supersession
	// came strictly after the window start must have been returned.
	oldest := len(l)
	if prev >= 0 {
		oldest = prev
	}
	for k := oldest - 1; k >= 0; k-- {
		if l[k].ver == trimmed {
			continue
		}
		if l[k+1].lo > windowStart {
			return fmt.Errorf("lpa %d: version stamped %d superseded at %d, after window start %d, is missing",
				lpa, l[k].hi, l[k+1].lo, windowStart)
		}
		break
	}
	return nil
}

func lastWrite(l []change) int { return prevWrite(l, len(l)) }

// prevWrite returns the index of the newest write below index i, or -1.
func prevWrite(l []change, i int) int {
	for k := i - 1; k >= 0; k-- {
		if l[k].ver != trimmed {
			return k
		}
	}
	return -1
}

// checkTimestamps checks that Timestamps, which reads only OOB, lists the
// stamps Versions decoded.
func checkTimestamps(lpa uint64, ts []vclock.Time, vs []core.Version) error {
	if len(ts) != len(vs) {
		return fmt.Errorf("lpa %d: %d timestamps for %d versions", lpa, len(ts), len(vs))
	}
	for i := range ts {
		if ts[i] != vs[i].TS {
			return fmt.Errorf("lpa %d: timestamp %d is %d, version says %d", lpa, i, ts[i], vs[i].TS)
		}
	}
	return nil
}

// checkVersionAt checks an AddrQuery(t) answer for one page: the version
// the log says was current at t, or none.
func checkVersionAt(m *model, lpa uint64, t vclock.Time, got []core.Version) error {
	l := m.log[lpa]
	k := -1
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].lo <= t {
			k = i
			break
		}
	}
	if k < 0 || l[k].ver == trimmed {
		if len(got) != 0 {
			return fmt.Errorf("lpa %d at %d: got %d versions, page had no content", lpa, t, len(got))
		}
		return nil
	}
	if len(got) != 1 {
		return fmt.Errorf("lpa %d at %d: got %d versions, want 1", lpa, t, len(got))
	}
	if got[0].TS < l[k].lo || got[0].TS > l[k].hi {
		return fmt.Errorf("lpa %d at %d: version stamped %d, want [%d, %d]", lpa, t, got[0].TS, l[k].lo, l[k].hi)
	}
	if err := checkPage(got[0].Data, m.content(lpa, l[k].ver), len(got[0].Data)); err != nil {
		return fmt.Errorf("lpa %d at %d: %w", lpa, t, err)
	}
	return nil
}

// checkTimeRange checks a TimeQueryRange(t1, t2) answer against the log:
// exactly the pages with writes stamped in [t1, t2], with exactly those
// stamps newest first. t1 must lie after the retention window start, so
// every such version is retained. A rollback write's stamp is checked
// against its interval; t1 and t2 must not fall inside one.
func checkTimeRange(m *model, t1, t2 vclock.Time, got []core.UpdateRecord) error {
	recs := append([]core.UpdateRecord(nil), got...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].LPA < recs[j].LPA })
	r := 0
	for lpa, l := range m.log {
		var want []change
		for i := len(l) - 1; i >= 0; i-- {
			if c := l[i]; c.ver != trimmed && c.hi >= t1 && c.lo <= t2 {
				want = append(want, c)
			}
		}
		if len(want) == 0 {
			continue
		}
		if r >= len(recs) || recs[r].LPA > uint64(lpa) {
			return fmt.Errorf("range [%d, %d]: lpa %d missing (%d writes in range)", t1, t2, lpa, len(want))
		}
		if recs[r].LPA < uint64(lpa) {
			return fmt.Errorf("range [%d, %d]: lpa %d reported, no write in range", t1, t2, recs[r].LPA)
		}
		ts := recs[r].Times
		if len(ts) != len(want) {
			return fmt.Errorf("range [%d, %d]: lpa %d has %d stamps, want %d", t1, t2, lpa, len(ts), len(want))
		}
		for i, c := range want {
			if ts[i] < c.lo || ts[i] > c.hi {
				return fmt.Errorf("range [%d, %d]: lpa %d stamp %d is %d, want [%d, %d]", t1, t2, lpa, i, ts[i], c.lo, c.hi)
			}
		}
		r++
	}
	if r != len(recs) {
		return fmt.Errorf("range [%d, %d]: %d records, log has %d", t1, t2, len(recs), r)
	}
	return nil
}

// checkRolledBack checks pages read back after a rollback to t: page i
// (lpa base+i) must hold the version the log says was current at t.
func checkRolledBack(m *model, base uint64, t vclock.Time, reads [][]byte) error {
	for i, got := range reads {
		lpa := base + uint64(i)
		want := m.content(lpa, versionAt(m.log[lpa], t))
		if err := checkPage(got, want, len(got)); err != nil {
			return fmt.Errorf("rollback to %d: lpa %d: %w", t, lpa, err)
		}
	}
	return nil
}

// checkConservation checks that the layers agree on how much was written:
// the device saw exactly the writes the client had acknowledged plus the
// pages rollbacks wrote back, and every flash program is a host write or a
// GC write.
func checkConservation(c obs.Counters, acked, rollbackWrites int64) error {
	if c.HostPageWrites != acked+rollbackWrites {
		return fmt.Errorf("device counted %d host page writes, client acknowledged %d + %d rollback writes",
			c.HostPageWrites, acked, rollbackWrites)
	}
	if c.FlashPrograms != c.HostPageWrites+c.GCWrites {
		return fmt.Errorf("%d flash programs != %d host writes + %d GC writes",
			c.FlashPrograms, c.HostPageWrites, c.GCWrites)
	}
	return nil
}
