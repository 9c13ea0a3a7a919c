package main

import (
	"context"
	"sync/atomic"
	"testing"

	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/opt"
)

func toySpace() core.Space {
	return core.Space{
		{Name: "x", Kind: core.Continuous, Min: -1, Max: 1},
		{Name: "y", Kind: core.Continuous, Min: -1, Max: 1},
	}
}

// toySim is a deterministic quadratic bowl.
type toySim struct{}

func (toySim) Run(_ context.Context, p core.Point) (float64, error) {
	dx, dy := p["x"]-0.3, p["y"]+0.2
	return dx*dx + dy*dy, nil
}

// hintSim additionally claims a wide evaluation pool.
type hintSim struct{ toySim }

func (hintSim) EvalConcurrency() int { return 5 }

// asyncSim additionally delivers completions by callback, counting
// how often that path is taken.
type asyncSim struct {
	toySim
	calls *atomic.Int64
}

func (s asyncSim) RunAsync(ctx context.Context, p core.Point, done func(float64, error)) {
	s.calls.Add(1)
	go func() { done(s.Run(ctx, p)) }()
}

type hintAsyncSim struct {
	asyncSim
}

func (hintAsyncSim) EvalConcurrency() int { return 5 }

// interfacesOf lists which optional calibration interfaces sim has.
func interfacesOf(sim core.Simulator) (hint, async bool) {
	_, hint = sim.(core.ConcurrencyHinter)
	_, async = sim.(core.AsyncSimulator)
	return hint, async
}

// workersSeen records the evaluation parallelism a calibration chose.
type workersSeen struct {
	calObserver
	workers int
}

func (w *workersSeen) CalibrationStarted(info core.RunInfo) { w.workers = info.Workers }

func calibrate(t *testing.T, sim core.Simulator, alg string, workers int) (*core.Result, int) {
	t.Helper()
	a, err := opt.ByName(alg)
	if err != nil {
		t.Fatal(err)
	}
	seen := &workersSeen{}
	res, err := (&core.Calibrator{
		Space: toySpace(), Simulator: sim, Algorithm: a,
		MaxEvaluations: 40, Workers: workers, Seed: 7, Observer: seen,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, seen.workers
}

// TestTimedKeepsTheProgramUnchanged: a wrapped simulator exposes the
// same optional interfaces as the one it wraps, and a calibration
// through it picks the same batch width, takes the same delivery path
// and produces a bitwise-equal history.
func TestTimedKeepsTheProgramUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner func(calls *atomic.Int64) core.Simulator
	}{
		{"plain", func(*atomic.Int64) core.Simulator { return toySim{} }},
		{"hinter", func(*atomic.Int64) core.Simulator { return hintSim{} }},
		{"async", func(c *atomic.Int64) core.Simulator { return asyncSim{calls: c} }},
		{"hinter+async", func(c *atomic.Int64) core.Simulator { return hintAsyncSim{asyncSim{calls: c}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plainCalls, wrappedCalls atomic.Int64
			inner := tc.inner(&plainCalls)
			log := &spanLog{}
			log.on.Store(true)
			wrapped := timed(tc.inner(&wrappedCalls), log, "loss.busy_s", "cal")

			h1, a1 := interfacesOf(inner)
			h2, a2 := interfacesOf(wrapped)
			if h1 != h2 || a1 != a2 {
				t.Fatalf("wrapped interfaces (hinter %v, async %v), inner (hinter %v, async %v)", h2, a2, h1, a1)
			}

			// Batch width comes from the hint when Workers is 0.
			want, wantWorkers := calibrate(t, inner, "BO-GP", 0)
			got, gotWorkers := calibrate(t, wrapped, "BO-GP", 0)
			if gotWorkers != wantWorkers {
				t.Errorf("batch width %d wrapped, %d unwrapped", gotWorkers, wantWorkers)
			}
			if fingerprint(got) != fingerprint(want) {
				t.Error("BO-GP history through the decorator differs from the unwrapped one")
			}

			// One evaluation in flight keeps async-bo's order fixed, so
			// the two histories must agree bit for bit.
			want, _ = calibrate(t, inner, "async-bo", 1)
			got, _ = calibrate(t, wrapped, "async-bo", 1)
			if fingerprint(got) != fingerprint(want) {
				t.Error("async-bo history through the decorator differs from the unwrapped one")
			}
			if wrappedCalls.Load() != plainCalls.Load() {
				t.Errorf("RunAsync taken %d times wrapped, %d unwrapped", wrappedCalls.Load(), plainCalls.Load())
			}
			if n := len(log.drain()); n != 2*40 {
				t.Errorf("decorator recorded %d spans, want one per evaluation (80)", n)
			}
		})
	}
}

// TestTimedRemoteEvaluator runs the real remote evaluator of a
// loopback fleet wrapped and unwrapped.
func TestTimedRemoteEvaluator(t *testing.T) {
	log := &spanLog{}
	f, err := startFleet(dist.NewLoopback(), "", func([]byte) (core.Simulator, error) {
		return timed(toySim{}, log, "loss.busy_s", ""), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	inner := f.coord.Evaluator([]byte(`{"toy":1}`))
	wrapped := timed(inner, log, "dist.remote_s", "cal")
	h1, a1 := interfacesOf(inner)
	h2, a2 := interfacesOf(wrapped)
	if !h1 || !a1 || h1 != h2 || a1 != a2 {
		t.Fatalf("remote evaluator interfaces (hinter %v, async %v), wrapped (hinter %v, async %v)", h1, a1, h2, a2)
	}
	want, wantWorkers := calibrate(t, inner, "RAND", 0)
	log.on.Store(true)
	got, gotWorkers := calibrate(t, wrapped, "RAND", 0)
	log.on.Store(false)
	if gotWorkers != wantWorkers || fingerprint(got) != fingerprint(want) {
		t.Errorf("wrapped remote calibration differs: width %d vs %d", gotWorkers, wantWorkers)
	}
	remote := 0
	for _, s := range log.drain() {
		if s.name == "dist.remote_s" {
			remote++
		}
	}
	if remote != 40 {
		t.Errorf("recorded %d remote spans, want 40", remote)
	}
}
