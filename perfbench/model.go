package main

import (
	"almanac/internal/trace"
	"almanac/internal/vclock"
)

// change is one acknowledged change to a logical page, as the workload
// itself recorded it. A host write is stamped with its issue time (lo ==
// hi). A rollback's write-back is stamped by the device after its version
// lookup, so the workload only knows the stamp lies in [lo, hi]; its
// content is still known exactly.
type change struct {
	lo, hi vclock.Time
	ver    int64 // ContentGen version number; trimmed marks a trim
}

const trimmed = -1

// model is the benchmark's own record of what every page should hold,
// kept apart from the program: content comes from trace.ContentGen, which
// is a pure function of (seed, lpa, version).
type model struct {
	gen  *trace.ContentGen
	log  [][]change
	next []int64 // next fresh version number per page

	acked    int64 // host page writes the program acknowledged
	rbWrites int64 // pages rollbacks changed by writing an old version back
}

func newModel(gen *trace.ContentGen, pages int) *model {
	return &model{gen: gen, log: make([][]change, pages), next: make([]int64, pages)}
}

// nextContent returns the payload of the next fresh version of lpa without
// recording it; commit records it once the program acknowledged the write.
func (m *model) nextContent(lpa uint64) ([]byte, int64) {
	v := m.next[lpa]
	return m.gen.VersionContent(lpa, uint64(v)), v
}

func (m *model) commitWrite(lpa uint64, ver int64, at vclock.Time) {
	m.next[lpa] = ver + 1
	m.log[lpa] = append(m.log[lpa], change{lo: at, hi: at, ver: ver})
	m.acked++
}

func (m *model) commitTrim(lpa uint64, at vclock.Time) {
	l := m.log[lpa]
	if len(l) > 0 && l[len(l)-1].ver != trimmed {
		m.log[lpa] = append(l, change{lo: at, hi: at, ver: trimmed})
	}
}

// head returns the version that lpa holds now, or trimmed for a page that
// was never written or was trimmed last.
func (m *model) head(lpa uint64) int64 {
	l := m.log[lpa]
	if len(l) == 0 {
		return trimmed
	}
	return l[len(l)-1].ver
}

// versionAt returns the version current at t. It is exact as long as t
// falls outside every rollback's stamp interval.
func versionAt(l []change, t vclock.Time) int64 {
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].lo <= t {
			return l[i].ver
		}
	}
	return trimmed
}

// commitRollBack records a rollback of lpa to its state at t, issued at lo
// and completed at hi. It reports whether the device had to write an old
// version back (the page changed after t).
func (m *model) commitRollBack(lpa uint64, t, lo, hi vclock.Time) bool {
	l := m.log[lpa]
	want := versionAt(l, t)
	if len(l) == 0 || l[len(l)-1].lo <= t {
		return false
	}
	if want == trimmed {
		if l[len(l)-1].ver != trimmed {
			m.log[lpa] = append(l, change{lo: lo, hi: hi, ver: trimmed})
		}
		return false
	}
	m.log[lpa] = append(l, change{lo: lo, hi: hi, ver: want})
	m.rbWrites++
	return true
}

// content returns the bytes of version ver of lpa (nil for trimmed).
func (m *model) content(lpa uint64, ver int64) []byte {
	if ver == trimmed {
		return nil
	}
	return m.gen.VersionContent(lpa, uint64(ver))
}
