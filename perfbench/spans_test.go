package main

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestSelfTimesHandBuiltTree checks the budget accounting on a tree
// whose answer is worked out by hand:
//
//	root  [0,100]
//	  a   [10,40]
//	  b   [50,90]
//	    c [50,70]
//	    d [60,90]   c and d overlap on [60,70]
//
// root keeps what no child covers (30 ms), a has no children (30 ms), b
// is covered entirely by c ∪ d (0 ms), and c and d split their overlap.
func TestSelfTimesHandBuiltTree(t *testing.T) {
	tr := newTree("root", "cal", at(0), at(100))
	tr.add(span{name: "a", start: at(10), end: at(40)}, 0)
	b := tr.add(span{name: "b", start: at(50), end: at(90)}, 0)
	tr.add(span{name: "c", start: at(50), end: at(70)}, b)
	tr.add(span{name: "d", start: at(60), end: at(90)}, b)

	got := tr.selfTimes()
	want := map[string]float64{"root": 0.030, "a": 0.030, "b": 0, "c": 0.015, "d": 0.025}
	sum := 0.0
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self(%s) = %v s, want %v s", name, got[name], w)
		}
		sum += got[name]
	}
	if !near(sum, 0.100) {
		t.Errorf("self times sum to %v s, want the root's 0.1 s", sum)
	}
}

// TestSelfTimesSequentialIsSpanMinusCoverage: without overlapping
// siblings, a span's self time is exactly its duration minus the union
// of its children.
func TestSelfTimesSequentialIsSpanMinusCoverage(t *testing.T) {
	tr := newTree("root", "cal", at(0), at(60))
	p := tr.add(span{name: "p", start: at(0), end: at(60)}, 0)
	tr.add(span{name: "k", start: at(5), end: at(15)}, p)
	tr.add(span{name: "k", start: at(20), end: at(45)}, p)
	got := tr.selfTimes()
	if !near(got["p"], 0.060-0.035) || !near(got["k"], 0.035) || !near(got["root"], 0) {
		t.Errorf("self times = %v, want p 0.025 s, k 0.035 s, root 0", got)
	}
}

// TestAddClampsIntoParent: a child reaching outside its parent is cut
// to the parent's interval, and one left empty is dropped.
func TestAddClampsIntoParent(t *testing.T) {
	tr := newTree("root", "cal", at(10), at(20))
	if i := tr.add(span{name: "x", start: at(5), end: at(15)}, 0); i < 0 || tr.spans[i].start != at(10) {
		t.Fatalf("child not clamped to the parent's start: %+v", tr.spans)
	}
	if i := tr.add(span{name: "y", start: at(25), end: at(30)}, 0); i != -1 {
		t.Errorf("child outside its parent kept at index %d", i)
	}
}

// TestBatchTreeSumsToWallTime builds a batch calibration's tree from a
// hand-filled observer record: two batches of two concurrent
// evaluations, a proposal gap with a fit and an acquisition, one
// without model work, and a checkpoint.
func TestBatchTreeSumsToWallTime(t *testing.T) {
	o := &calObserver{
		batches: []*batchRec{
			{start: at(10), end: at(30), evals: []span{
				{name: "resilience.overhead_s", key: "p1", start: at(10), end: at(30)},
				{name: "resilience.overhead_s", key: "p2", start: at(12), end: at(28)},
			}},
			{start: at(60), end: at(80), evals: []span{
				{name: "resilience.overhead_s", key: "p3", start: at(60), end: at(80)},
			}},
		},
		fits:     []span{{name: "opt.fit_s", start: at(40), end: at(45)}},
		acqs:     []span{{name: "opt.acq_s", start: at(45), end: at(58)}},
		predicts: []span{{name: "opt.predict_s", start: at(45), end: at(50)}},
		ckpts:    []span{{name: "core.ckpt_s", start: at(30), end: at(35)}},
	}
	calls := []span{
		{name: "loss.busy_s", key: "p1", start: at(11), end: at(29)},
		{name: "loss.busy_s", key: "p2", start: at(12), end: at(27)},
		{name: "loss.busy_s", key: "p3", start: at(61), end: at(79)},
	}
	tr := batchTree("cal", at(0), at(100), o, true, calls, nil)
	got := tr.selfTimes()
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if !near(sum, 0.100) {
		t.Errorf("budget lines sum to %v s, want the calibration's 0.1 s: %v", sum, got)
	}
	// The gap [35,60] after the checkpoint holds model work; the gap
	// [0,10] before the first batch does not and stays unaccounted.
	want := map[string]float64{
		"opt.propose_s":        0.025 - 0.005 - 0.013,
		"opt.fit_s":            0.005,
		"opt.acq_s":            0.008,
		"opt.predict_s":        0.005,
		"core.ckpt_s":          0.005,
		"budget.unaccounted_s": 0.010 + 0.020,
	}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("%s = %v s, want %v s", name, got[name], w)
		}
	}
}
