// Command perfbench is simcal's benchmark: it measures one calibration
// end to end, and per layer, on three workloads.
//
//	bash perfbench/run.sh --workload wf-bogp-local --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
// and untraced rounds and prints the per-layer metrics. Either way the
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The benchmark drives the
// program only through its public entry points, from this one process,
// and times each layer from outside by wrapping the calls into it.
// README.md in this directory maps every layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"simcal/internal/cache"
	"simcal/internal/obs"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow filesystem or scheduler hiccup out
// of the figure.
const setupReps = 7

func main() {
	name := flag.String("workload", "", "wf-bogp-local, mpi-rand-fleet or svc-async-durable")
	seed := flag.Int64("seed", 1, "workload seed: ground-truth and calibration seeds derive from it")
	secs := flag.Int("seconds", 30, "how long the measured rounds run")
	trace := flag.Int("trace", 0, "1 alternates traced and untraced rounds and reports per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// A run must end within three minutes, build included; a hung fleet
	// or job must not hold the machine.
	time.AfterFunc(time.Duration(*secs)*time.Second+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	os.Exit(run(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1))
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "wf-bogp-local":
		return &wfLocal{seed: seed}, nil
	case "mpi-rand-fleet":
		return &mpiFleet{seed: seed}, nil
	case "svc-async-durable":
		return &svcAsync{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// readCounters reads the always-on obs.Default() counters the layer
// metrics use, plus the workload's cache statistics.
func readCounters(c *cache.Cache) map[string]int64 {
	reg := obs.Default()
	out := map[string]int64{
		"des.events":    reg.Counter("des.events_fired").Value(),
		"flow.solves":   reg.Counter("flow.solves").Value(),
		"flow.iters":    reg.Counter("flow.solve_iterations").Value(),
		"dist.frames":   reg.Counter("dist.frames_rx").Value() + reg.Counter("dist.frames_tx").Value(),
		"dist.requeues": reg.Counter("dist.leases_requeued").Value(),
		"dist.codec_ns": reg.Histogram("dist.frame_encode_ns").Dump().Sum + reg.Histogram("dist.frame_decode_ns").Dump().Sum,
		"dist.wait_ns":  reg.Histogram("dist.lease_queue_wait_ns").Dump().Sum,
	}
	if c != nil {
		st := c.Stats()
		out["cache.hits"], out["cache.misses"], out["cache.waits"] = st.Hits, st.Misses, st.InflightWaits
	}
	return out
}

// measured accumulates one side (untraced or traced) of a run.
type measured struct {
	cals   int
	evals  int
	wall   time.Duration // Σ round walls
	alloc  uint64
	walls  []float64 // per calibration, s
	ttts   []float64 // s
	layers *layerAcc // traced side only
}

// layerAcc accumulates the per-layer figures of traced calibrations.
type layerAcc struct {
	lines       map[string]float64 // budget lines, Σ s
	calWall     float64            // Σ calibration wall, s
	simMS       []float64          // simulator run durations, ms
	simBusy     float64            // Σ simulator run time, s
	remoteBusy  float64            // Σ remote lease time, s
	remoteN     int
	fits        int
	ckptWrites  int
	barrierIdle float64
	runPhase    float64
	stateBytes  int64
	ctr         map[string]int64 // counter deltas over the traced rounds
}

func (m *measured) addRound(recs []*calRecord, st roundStats) {
	m.wall += st.wall
	m.alloc += st.alloc
	for _, r := range recs {
		m.cals++
		m.evals += r.res.Evaluations
		m.walls = append(m.walls, r.wall.Seconds())
		if r.hasTTT {
			m.ttts = append(m.ttts, r.ttt.Seconds())
		}
		if l := m.layers; l != nil && r.tree != nil {
			for name, v := range r.tree.selfTimes() {
				l.lines[name] += v
			}
			l.calWall += r.wall.Seconds()
			for _, s := range r.tree.spans {
				switch s.name {
				case "loss.busy_s":
					l.simMS = append(l.simMS, float64(s.dur())/1e6)
					l.simBusy += s.dur().Seconds()
				case "dist.remote_s":
					l.remoteBusy += s.dur().Seconds()
					l.remoteN++
				}
			}
			l.fits += r.fits
			l.ckptWrites += r.ckptWrites
			l.barrierIdle += r.barrierIdle.Seconds()
			l.runPhase += r.runPhase.Seconds()
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// budgetLines are the per-layer lines that partition a calibration's
// wall time; with budget.unaccounted_s they sum to budget.calibration_s.
var budgetLines = []string{
	"opt.propose_s", "opt.fit_s", "opt.acq_s", "opt.predict_s",
	"core.batch_s", "core.ckpt_s", "resilience.overhead_s", "loss.busy_s",
	"dist.remote_s", "service.queue_s", "budget.unaccounted_s",
}

func run(name string, seed int64, seconds time.Duration, trace bool) int {
	w, err := newWorkload(name, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	var setups, builds []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		// Collect the previous setup's garbage now, not inside the next
		// timed setup.
		runtime.GC()
		start := time.Now()
		build, err := w.setup(dir)
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, build.Seconds())
		if err != nil {
			w.teardown()
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
	}
	defer w.teardown()
	ticks0, steal0 := cpuTicks()

	var all []*calRecord
	var failures []string
	// Round 0 warms the program up (worker simulator caches, lazily
	// built state) and is checked but not measured.
	recs, _, err := w.round(0, false)
	if err != nil {
		failures = append(failures, "warm-up: "+err.Error())
	}
	all = append(all, recs...)

	plain := &measured{}
	traced := &measured{layers: &layerAcc{lines: map[string]float64{}, ctr: map[string]int64{}}}
	start := time.Now()
	for r := 1; err == nil && (r <= 2 || time.Since(start) < seconds); r++ {
		on := trace && r%2 == 0
		side := plain
		var before map[string]int64
		var stateBefore int64
		if on {
			side = traced
			before = readCounters(cacheOf(w))
			stateBefore = dirSize(w.stateDir())
		}
		var st roundStats
		recs, st, err = w.round(r, on)
		if err != nil {
			failures = append(failures, fmt.Sprintf("round %d: %v", r, err))
			break
		}
		if on {
			for k, v := range readCounters(cacheOf(w)) {
				traced.layers.ctr[k] += v - before[k]
			}
			traced.layers.stateBytes += dirSize(w.stateDir()) - stateBefore
		}
		side.addRound(recs, st)
		all = append(all, recs...)
	}
	peakRSS := peakRSSMB()
	ticks1, steal1 := cpuTicks()
	steal := 0.0
	if ticks1 > ticks0 {
		steal = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	fmt.Println(hostFacts(dir, steal))

	checks, checkFailures := w.check(all)
	failures = append(failures, checkFailures...)
	infs := 0
	evals := 0
	for _, r := range all {
		infs += infCount(r.res)
		evals += r.res.Evaluations
		if r.res.Algorithm != "async-bo" {
			fmt.Printf("fingerprint %s %d %d %s\n", name, seed, r.seed, fingerprint(r.res))
		}
	}

	metrics := map[string]metric{}
	if trace {
		checks++
		if f := layerMetrics(metrics, w, traced, plain, builds); f != "" {
			failures = append(failures, f)
		}
		var trees []*tree
		for _, r := range all {
			if r.tree != nil {
				trees = append(trees, r.tree)
			}
		}
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", name, seed))
		if err := writeSpans(path, trees); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("spans: %s\n", path)
		}
	} else {
		endToEnd(metrics, plain, setups, peakRSS)
	}
	attempted := evals + len(all) + checks
	failed := infs + len(failures)
	for _, f := range failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("failed_frac = %.6g (%d of %d evaluations, calibrations and checks)\n",
		float64(failed)/float64(attempted), failed, attempted)
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

func cacheOf(w workload) *cache.Cache {
	if s, ok := w.(*svcAsync); ok {
		return s.cache
	}
	return nil
}

// endToEnd fills the metrics a user of the system sees, from untraced
// rounds.
func endToEnd(m map[string]metric, p *measured, setups []float64, peakRSS float64) {
	m["setup_s"] = metric{median(setups), "s"}
	m["calibration_s"] = metric{median(p.walls), "s"}
	m["evals_per_s"] = metric{ratio(float64(p.evals), p.wall.Seconds()), "1/s"}
	m["alloc_mb"] = metric{ratio(float64(p.alloc), float64(p.cals)) / (1 << 20), "MiB"}
	m["peak_rss_mb"] = metric{peakRSS, "MiB"}
	if line := tailLine("calibration_s", p.walls, "s"); line != "" {
		fmt.Println(line)
	}
	// Not a gated metric: on RAND the point that sets the target lies
	// anywhere in the first half of the trajectory, so the median over
	// a run's calibrations spreads across seeds by more than any bound
	// the benchmark may set.
	fmt.Printf("time_to_target_s = %.6g s (median of %d calibrations)\n", median(p.ttts), len(p.ttts))
}

// layerMetrics fills the per-layer metrics from the traced rounds, as
// means per traced calibration (per job on the service workload). It
// returns a failure when the budget lines do not sum to the traced
// calibration time.
func layerMetrics(m map[string]metric, w workload, tr, plain *measured, builds []float64) string {
	l := tr.layers
	per := func(v float64) float64 { return ratio(v, float64(tr.cals)) }
	m["simspec.build_s"] = metric{median(builds), "s"}
	sum := 0.0
	for _, name := range budgetLines {
		v := per(l.lines[name])
		sum += v
		m[name] = metric{v, "s"}
	}
	m["budget.calibration_s"] = metric{per(l.calWall), "s"}
	m["budget.trace_overhead_frac"] = metric{ratio(median(tr.walls), median(plain.walls)) - 1, "ratio"}
	m["loss.eval_ms_p50"] = metric{quantile(l.simMS, 0.5), "ms"}
	m["loss.eval_ms_p99"] = metric{quantile(l.simMS, 0.99), "ms"}
	evals := float64(tr.evals)
	m["des.events_per_eval"] = metric{ratio(float64(l.ctr["des.events"]), evals), "count"}
	m["des.ns_per_event"] = metric{ratio(l.simBusy*1e9, float64(l.ctr["des.events"])), "ns"}
	m["flow.solves_per_eval"] = metric{ratio(float64(l.ctr["flow.solves"]), evals), "count"}
	m["flow.iterations_per_eval"] = metric{ratio(float64(l.ctr["flow.iters"]), evals), "count"}
	m["opt.fits"] = metric{per(float64(l.fits)), "count"}
	m["core.barrier_idle_s"] = metric{per(l.barrierIdle), "s"}
	m["core.worker_util"] = metric{ratio(l.simBusy, slots*tr.wall.Seconds()), "ratio"}
	m["core.ckpt_writes"] = metric{per(float64(l.ckptWrites)), "count"}
	remoteOverhead := 0.0
	if l.remoteN > 0 {
		remoteOverhead = (l.remoteBusy - l.simBusy) / float64(l.remoteN) * 1e3
	}
	m["dist.overhead_ms_per_eval"] = metric{remoteOverhead, "ms"}
	m["dist.frames_per_eval"] = metric{ratio(float64(l.ctr["dist.frames"]), float64(l.remoteN)), "count"}
	m["dist.codec_s"] = metric{per(float64(l.ctr["dist.codec_ns"]) / 1e9), "s"}
	m["dist.lease_wait_s"] = metric{per(float64(l.ctr["dist.wait_ns"]) / 1e9), "s"}
	m["dist.requeues"] = metric{float64(l.ctr["dist.requeues"]), "count"}
	m["cache.hits"] = metric{per(float64(l.ctr["cache.hits"])), "count"}
	m["cache.inflight_waits"] = metric{per(float64(l.ctr["cache.waits"])), "count"}
	m["cache.hit_frac"] = metric{ratio(float64(l.ctr["cache.hits"]), float64(l.ctr["cache.hits"]+l.ctr["cache.misses"])), "ratio"}
	var submitMS []float64
	if s, ok := w.(*svcAsync); ok {
		for _, d := range s.submits {
			submitMS = append(submitMS, float64(d)/1e6)
		}
	}
	m["service.submit_ms"] = metric{median(submitMS), "ms"}
	m["service.run_s"] = metric{per(l.runPhase), "s"}
	m["service.state_bytes"] = metric{per(float64(l.stateBytes)), "bytes"}

	fmt.Printf("budget: %d traced calibrations; lines sum to %.6f s of %.6f s per calibration\n",
		tr.cals, sum, per(l.calWall))
	for _, name := range budgetLines {
		fmt.Printf("  %-24s %10.6f s  %5.1f%%\n", name, per(l.lines[name]), 100*ratio(l.lines[name], l.calWall))
	}
	if math.Abs(sum-per(l.calWall)) > 1e-6*per(l.calWall) {
		return fmt.Sprintf("budget lines sum to %.9f s, calibration time is %.9f s", sum, per(l.calWall))
	}
	return ""
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
