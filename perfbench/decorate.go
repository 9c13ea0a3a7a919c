package main

import (
	"context"
	"time"

	"simcal/internal/core"
)

// timedSim is the timing decorator the benchmark puts around a layer's
// simulator: every Run it forwards is recorded as one span in log while
// tracing is on. It sits where the program already accepts a
// core.Simulator (the calibrator, a dist worker's factory, a service
// backend), so the program itself is not changed.
type timedSim struct {
	inner core.Simulator
	log   *spanLog
	name  string // budget line of the recorded spans
	cal   string // owning calibration or job; "" when matched later by time
}

// Run implements core.Simulator.
func (t *timedSim) Run(ctx context.Context, p core.Point) (float64, error) {
	if !t.log.on.Load() {
		return t.inner.Run(ctx, p)
	}
	start := time.Now()
	loss, err := t.inner.Run(ctx, p)
	t.log.add(span{name: t.name, cal: t.cal, key: pointKey(p), start: start, end: time.Now()})
	return loss, err
}

// hintFwd forwards core.ConcurrencyHinter: without it a wrapped remote
// evaluator would lose its fleet-capacity hint and calibrate with a
// different batch width.
type hintFwd struct{ h core.ConcurrencyHinter }

// EvalConcurrency implements core.ConcurrencyHinter.
func (f hintFwd) EvalConcurrency() int { return f.h.EvalConcurrency() }

// asyncFwd forwards core.AsyncSimulator: without it the async engine
// would park a goroutine per in-flight evaluation instead of taking the
// callback delivery path.
type asyncFwd struct {
	t *timedSim
	a core.AsyncSimulator
}

// RunAsync implements core.AsyncSimulator; the span ends when the
// completion is delivered.
func (f asyncFwd) RunAsync(ctx context.Context, p core.Point, done func(float64, error)) {
	if !f.t.log.on.Load() {
		f.a.RunAsync(ctx, p, done)
		return
	}
	start := time.Now()
	key := pointKey(p)
	f.a.RunAsync(ctx, p, func(loss float64, err error) {
		f.t.log.add(span{name: f.t.name, cal: f.t.cal, key: key, start: start, end: time.Now()})
		done(loss, err)
	})
}

// timed wraps inner in a timing decorator that implements exactly the
// optional interfaces inner implements.
func timed(inner core.Simulator, log *spanLog, name, cal string) core.Simulator {
	t := &timedSim{inner: inner, log: log, name: name, cal: cal}
	h, hint := inner.(core.ConcurrencyHinter)
	a, async := inner.(core.AsyncSimulator)
	switch {
	case hint && async:
		return struct {
			*timedSim
			hintFwd
			asyncFwd
		}{t, hintFwd{h}, asyncFwd{t, a}}
	case hint:
		return struct {
			*timedSim
			hintFwd
		}{t, hintFwd{h}}
	case async:
		return struct {
			*timedSim
			asyncFwd
		}{t, asyncFwd{t, a}}
	}
	return t
}
