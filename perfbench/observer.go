package main

import (
	"sync"
	"time"

	"simcal/internal/core"
)

// batchRec is one Evaluate call as the observer saw it: from
// BatchProposed to the batch's last EvalCompleted.
type batchRec struct {
	start, end time.Time
	evals      []span // one per EvalCompleted: [pickup, pickup+dur]
}

// calObserver is the benchmark's own core.Observer and
// core.FaultObserver. It timestamps the callbacks of one batch
// calibration so its span tree can be built once the run is over.
type calObserver struct {
	mu       sync.Mutex
	batches  []*batchRec
	fits     []span
	acqs     []span
	predicts []span
	ckpts    []span
	lastEval time.Time
}

var (
	_ core.Observer      = (*calObserver)(nil)
	_ core.FaultObserver = (*calObserver)(nil)
)

func (o *calObserver) CalibrationStarted(core.RunInfo) {}

func (o *calObserver) BatchProposed(int) {
	now := time.Now()
	o.mu.Lock()
	o.batches = append(o.batches, &batchRec{start: now, end: now})
	o.mu.Unlock()
}

func (o *calObserver) EvalCompleted(s core.Sample, wait, dur time.Duration) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lastEval = now
	if len(o.batches) == 0 {
		return
	}
	b := o.batches[len(o.batches)-1]
	b.end = now
	pickup := b.start.Add(wait)
	b.evals = append(b.evals, span{name: "resilience.overhead_s", key: pointKey(s.Point), start: pickup, end: pickup.Add(dur)})
}

func (o *calObserver) IncumbentImproved(core.Sample) {}

func (o *calObserver) SurrogateFitted(_ int, dur time.Duration) {
	now := time.Now()
	o.mu.Lock()
	o.fits = append(o.fits, span{name: "opt.fit_s", start: now.Add(-dur), end: now})
	o.mu.Unlock()
}

func (o *calObserver) AcquisitionSolved(_ int, predict, dur time.Duration) {
	now := time.Now()
	start := now.Add(-dur)
	o.mu.Lock()
	// Prediction time is a sum over many candidate scorings inside the
	// acquisition; it is placed as one interval at the acquisition's
	// start, which keeps the acquisition's self time exact.
	o.acqs = append(o.acqs, span{name: "opt.acq_s", start: start, end: now})
	o.predicts = append(o.predicts, span{name: "opt.predict_s", start: start, end: start.Add(predict)})
	o.mu.Unlock()
}

func (o *calObserver) CalibrationFinished(*core.Result) {}

func (o *calObserver) PanicRecovered(string)                  {}
func (o *calObserver) EvalRetried(int, time.Duration, string) {}
func (o *calObserver) EvalTimedOut(time.Duration)             {}
func (o *calObserver) BreakerStateChanged(string, bool)       {}
func (o *calObserver) CheckpointFailed(error)                 {}
func (o *calObserver) CheckpointWritten(int) {
	now := time.Now()
	o.mu.Lock()
	o.ckpts = append(o.ckpts, span{name: "core.ckpt_s", start: o.lastEval, end: now})
	o.mu.Unlock()
}

// batchTree builds the span tree of one batch calibration from the
// observer's record and the decorator spans recorded while it ran:
//
//	calibration                        budget.unaccounted_s
//	  proposal gap with model work     opt.propose_s
//	    surrogate fit                  opt.fit_s
//	    acquisition                    opt.acq_s
//	      surrogate predictions        opt.predict_s
//	  Evaluate call                    core.batch_s
//	    evaluation (policy attached)   resilience.overhead_s
//	      simulator run                loss.busy_s
//	      or remote lease              dist.remote_s
//	        worker's simulator run     loss.busy_s
//	  checkpoint write                 core.ckpt_s
//
// Gaps between batches in which the algorithm reported no surrogate
// work have no outside boundary and stay in the root's self time.
func batchTree(cal string, start, end time.Time, o *calObserver, withResilience bool, calls, workerSims []span) *tree {
	t := newTree("budget.unaccounted_s", cal, start, end)
	o.mu.Lock()
	defer o.mu.Unlock()
	var batchIdx []int
	evalsByKey := map[string][]int{}
	prevEnd := start
	ckpts := o.ckpts
	for _, b := range o.batches {
		// The proposal phase is the gap since the previous batch (or
		// its checkpoint) ended, when the algorithm did model work in it.
		for len(ckpts) > 0 && !ckpts[0].start.After(b.start) {
			if ckpts[0].end.After(prevEnd) {
				prevEnd = ckpts[0].end
			}
			t.add(ckpts[0], 0)
			ckpts = ckpts[1:]
		}
		if hasSpanIn(o.fits, prevEnd, b.start) || hasSpanIn(o.acqs, prevEnd, b.start) {
			t.add(span{name: "opt.propose_s", start: prevEnd, end: b.start}, 0)
		}
		bi := t.add(span{name: "core.batch_s", start: b.start, end: b.end}, 0)
		if bi >= 0 {
			batchIdx = append(batchIdx, bi)
			if withResilience {
				for _, e := range b.evals {
					if ei := t.add(e, bi); ei >= 0 {
						evalsByKey[e.key] = append(evalsByKey[e.key], ei)
					}
				}
			}
		}
		prevEnd = b.end
	}
	for _, c := range ckpts {
		t.add(c, 0)
	}
	var proposeIdx []int
	for i, s := range t.spans {
		if s.name == "opt.propose_s" {
			proposeIdx = append(proposeIdx, i)
		}
	}
	for _, f := range o.fits {
		t.add(f, t.containing(proposeIdx, f.start, 0))
	}
	for i, a := range o.acqs {
		if ai := t.add(a, t.containing(proposeIdx, a.start, 0)); ai >= 0 {
			t.add(o.predicts[i], ai)
		}
	}
	callsByKey := map[string][]int{}
	for _, c := range calls {
		parent := t.containing(evalsByKey[c.key], c.start, -1)
		if parent < 0 {
			parent = t.containing(batchIdx, c.start, 0)
		}
		if ci := t.add(c, parent); ci >= 0 {
			callsByKey[c.key] = append(callsByKey[c.key], ci)
		}
	}
	for _, w := range workerSims {
		if parent := t.containing(callsByKey[w.key], w.start, -1); parent >= 0 {
			t.add(w, parent)
		}
	}
	return t
}

// hasSpanIn reports whether any span starts within [from, to).
func hasSpanIn(spans []span, from, to time.Time) bool {
	for _, s := range spans {
		if !s.start.Before(from) && s.start.Before(to) {
			return true
		}
	}
	return false
}
