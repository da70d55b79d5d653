package bitop

import "sync/atomic"

// Stats accumulates the operation accounting of clustering calls when
// attached via Options.Stats. It counts the work a call does: the
// greedy rounds, and the anchor-row sweeps those rounds run, with their
// word operations and the candidates they offer. A round after the
// first runs only the sweeps the previous round's clear invalidated, so
// sweeps and word operations are not rounds times rows. Sweeps count in local
// integers and flush once per sweep, so attaching Stats costs a handful
// of atomic adds per sweep — and a nil *Stats costs nothing at all:
// every method is a nil-safe no-op, mirroring the obs package's
// disabled handles, so call sites never branch on whether accounting is
// on. The counters are atomic, so a Stats is safe for concurrent use.
type Stats struct {
	andWordOps atomic.Int64
	cmpWordOps atomic.Int64
	candidates atomic.Int64
	sweeps     atomic.Int64
	rounds     atomic.Int64
}

// addSweep records one anchor-row sweep's word-level operation counts
// and offered candidate rectangles.
func (st *Stats) addSweep(andOps, cmpOps, rects int64) {
	if st == nil {
		return
	}
	st.andWordOps.Add(andOps)
	st.cmpWordOps.Add(cmpOps)
	st.candidates.Add(rects)
	st.sweeps.Add(1)
}

// addRound records one greedy select-and-clear round.
func (st *Stats) addRound() {
	if st == nil {
		return
	}
	st.rounds.Add(1)
}

// AndWordOps reports the 64-bit-word AND operations performed.
func (st *Stats) AndWordOps() int64 {
	if st == nil {
		return 0
	}
	return st.andWordOps.Load()
}

// CmpWordOps reports the word comparisons performed by mask equality and
// emptiness checks.
func (st *Stats) CmpWordOps() int64 {
	if st == nil {
		return 0
	}
	return st.cmpWordOps.Load()
}

// Candidates reports the candidate rectangles the sweeps offered to
// their anchors' running bests: at each row that shrinks a mask, the
// runs the row cuts, and at the end of a sweep every run. A run the row
// keeps whole is offered later, taller, so it is not counted twice.
func (st *Stats) Candidates() int64 {
	if st == nil {
		return 0
	}
	return st.candidates.Load()
}

// Sweeps reports the anchor-row sweeps performed: every row in a
// call's first round, then in each later round only the anchors whose
// cached sweep the last clear invalidated.
func (st *Stats) Sweeps() int64 {
	if st == nil {
		return 0
	}
	return st.sweeps.Load()
}

// Rounds reports the greedy select-and-clear rounds performed.
func (st *Stats) Rounds() int64 {
	if st == nil {
		return 0
	}
	return st.rounds.Load()
}
