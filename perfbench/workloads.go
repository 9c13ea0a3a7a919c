package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"simcal/internal/cache"
	"simcal/internal/core"
	"simcal/internal/dist"
	"simcal/internal/groundtruth"
	"simcal/internal/loss"
	"simcal/internal/mpi"
	"simcal/internal/mpisim"
	"simcal/internal/obs"
	"simcal/internal/opt"
	"simcal/internal/resilience"
	"simcal/internal/service"
	"simcal/internal/simspec"
	"simcal/internal/wfgen"
	"simcal/internal/wfsim"
)

// Sizes of one calibration, chosen so a calibration takes about 1.5 s
// on a 2-core host: long enough that the surrogate (wf-bogp-local), the
// kernel and wire (mpi-rand-fleet) and the job server
// (svc-async-durable) each carry a measurable share, short enough for a
// run to hold a dozen calibrations or more.
const (
	slots    = 2 // evaluation slots: local workers or fleet workers of capacity 1
	wfEvals  = 300
	mpiEvals = 400
	svcEvals = 150
)

// calRecord is one finished calibration (one job on the service
// workload) as the benchmark measured it from outside.
type calRecord struct {
	id     string
	seed   int64
	wall   time.Duration // calibration_s sample
	res    *core.Result
	ttt    time.Duration // time_to_target_s sample, when hasTTT
	hasTTT bool

	// Traced calibrations only.
	tree        *tree
	fits        int
	ckptWrites  int
	barrierIdle time.Duration // slot time idle inside Evaluate calls
	runPhase    time.Duration // service jobs: started → finished
}

// roundStats is the cost of one measured round of a workload.
type roundStats struct {
	wall  time.Duration
	alloc uint64 // bytes allocated (TotalAlloc delta)
}

// workload is one benchmark scenario. setup is timed as setup_s and
// may run several times (with teardown between); round runs one
// measured unit (a calibration, or a service round of four jobs);
// check verifies the outputs of every round afterwards, untimed.
type workload interface {
	setup(dir string) (build time.Duration, err error)
	teardown()
	round(r int, traced bool) ([]*calRecord, roundStats, error)
	check(recs []*calRecord) (checks int, failures []string)
	stateDir() string // the service's state dir; "" for workloads without one
}

// wfSpec is the workflow spec simcal calibrates by default: the
// highest-detail version, loss L1, the default ground-truth scale.
func wfSpec(seed int64) simspec.Spec {
	return simspec.ForWF(wfsim.HighestDetail, loss.WFKind(0), groundtruth.WFOptions{
		Apps:    []wfgen.App{wfgen.Epigenomics},
		SizeIdx: []int{1}, WorkIdx: []int{1, 3}, FootIdx: []int{1, 2},
		Workers: []int{2}, Reps: 3, Seed: seed,
	}, false)
}

// mpiSpec is the MPI spec simcal calibrates by default.
func mpiSpec(seed int64) simspec.Spec {
	return simspec.ForMPI(mpisim.HighestDetail, loss.MPIKind(0), groundtruth.MPIOptions{
		Benchmarks: []mpi.Benchmark{mpi.PingPong, mpi.PingPing, mpi.BiRandom},
		Nodes:      []int{8},
		MsgSizes:   []float64{1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22},
		Rounds:     2, Reps: 3, Seed: seed,
	}, 2, false)
}

// buildSpec builds a spec's simulator and parameter space, returning
// the build time.
func buildSpec(sp simspec.Spec) (core.Simulator, core.Space, time.Duration, error) {
	start := time.Now()
	sim, err := sp.Build()
	build := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	space, err := sp.Space()
	return sim, space, build, err
}

func algorithm(name string) core.Algorithm {
	alg, err := opt.ByName(name)
	if err != nil {
		panic(err) // names are constants of this file
	}
	return alg
}

// runBatch runs one batch calibration and measures it from outside.
// Traced, it attaches the benchmark's observer and wraps the simulator
// in a timing decorator recording callName spans.
func runBatch(id string, cal core.Calibrator, log *spanLog, traced, withResilience bool, callName string) (*calRecord, roundStats, error) {
	var ob *calObserver
	if traced {
		ob = &calObserver{}
		cal.Observer = ob
		cal.Simulator = timed(cal.Simulator, log, callName, id)
		log.drain()
		log.on.Store(true)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := cal.Run(context.Background())
	end := time.Now()
	runtime.ReadMemStats(&after)
	log.on.Store(false)
	st := roundStats{wall: end.Sub(start), alloc: after.TotalAlloc - before.TotalAlloc}
	if err != nil {
		return nil, st, fmt.Errorf("calibration %s: %w", id, err)
	}
	rec := &calRecord{id: id, seed: cal.Seed, wall: st.wall, res: res, ttt: timeToTarget(res), hasTTT: true}
	if traced {
		var calls, workerSims []span
		for _, s := range log.drain() {
			if s.cal == id {
				calls = append(calls, s)
			} else {
				workerSims = append(workerSims, s)
			}
		}
		rec.tree = batchTree(id, start, end, ob, withResilience, calls, workerSims)
		rec.fits = len(ob.fits)
		rec.ckptWrites = len(ob.ckpts)
		for _, b := range ob.batches {
			idle := slots * b.end.Sub(b.start)
			for _, e := range b.evals {
				idle -= e.dur()
			}
			if idle > 0 {
				rec.barrierIdle += idle
			}
		}
	}
	return rec, st, nil
}

// reevaluates reports whether the best point of res re-evaluates to
// exactly its recorded loss on sim.
func reevaluates(sim core.Simulator, res *core.Result) bool {
	l, err := sim.Run(context.Background(), res.Best.Point)
	return err == nil && math.Float64bits(l) == math.Float64bits(res.Best.Loss)
}

// checkRecorded compares fingerprints against the ones recorded for
// this workload, for every (spec seed, calibration seed) on record.
func checkRecorded(workload string, specSeed int64, recs []*calRecord) (checks int, failures []string) {
	for _, r := range recs {
		want, ok := recorded[recordKey(workload, specSeed, r.seed)]
		if !ok || r.res.Algorithm == "async-bo" {
			continue
		}
		checks++
		if got := fingerprint(r.res); got != want {
			failures = append(failures, fmt.Sprintf("%s: fingerprint %s, recorded %s", r.id, got, want))
		}
	}
	return checks, failures
}

// wfLocal is W1, wf-bogp-local: the run `simcal -case wf -alg BO-GP
// -eval-timeout 2s -checkpoint ck.json` performs, on 2 local workers.
type wfLocal struct {
	seed  int64
	dir   string
	sim   core.Simulator
	space core.Space
	log   spanLog
}

func (w *wfLocal) setup(dir string) (time.Duration, error) {
	w.dir = dir
	sim, space, build, err := buildSpec(wfSpec(w.seed))
	w.sim, w.space = sim, space
	return build, err
}

func (w *wfLocal) teardown()        {}
func (w *wfLocal) stateDir() string { return "" }

func (w *wfLocal) round(r int, traced bool) ([]*calRecord, roundStats, error) {
	policy := resilience.DefaultPolicy()
	policy.Timeout = 2 * time.Second
	policy.BreakerThreshold = 0
	cal := core.Calibrator{
		Space: w.space, Simulator: w.sim, Algorithm: algorithm("BO-GP"),
		MaxEvaluations: wfEvals, Workers: slots, Seed: w.seed*1000 + int64(r),
		Resilience: &policy,
		CacheKey:   fmt.Sprintf("simcal/wf/%s/L1#seed=%d", wfsim.HighestDetail.Name(), w.seed),
		Checkpoint: &core.CheckpointSpec{Path: filepath.Join(w.dir, "wf.ckpt.json"), Every: 25},
	}
	rec, st, err := runBatch(fmt.Sprintf("wf-%d", r), cal, &w.log, traced, true, "loss.busy_s")
	if err != nil {
		return nil, st, err
	}
	return []*calRecord{rec}, st, nil
}

func (w *wfLocal) check(recs []*calRecord) (int, []string) {
	checks, failures := checkRecorded("wf-bogp-local", w.seed, recs)
	fresh, _, _, err := buildSpec(wfSpec(w.seed))
	if err != nil {
		return checks + 1, append(failures, "rebuilding the wf simulator: "+err.Error())
	}
	for _, r := range recs {
		checks++
		if !reevaluates(fresh, r.res) {
			failures = append(failures, r.id+": best point does not re-evaluate bitwise on a fresh simulator")
		}
	}
	return checks, failures
}

// fleet is a coordinator with 2 in-process workers of capacity 1.
type fleet struct {
	coord  *dist.Coordinator
	l      dist.Listener
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startFleet listens on addr over tr and connects 2 workers that
// build simulators with factory.
func startFleet(tr dist.Transport, addr string, factory dist.Factory) (*fleet, error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{
		coord: dist.NewCoordinator(dist.CoordinatorConfig{
			Name: "perfbench", Registry: obs.Default(), LocalFactory: simspec.BuildSimulator,
		}),
		l:      l,
		cancel: cancel,
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = f.coord.Serve(l) // returns once the listener is closed
	}()
	for i := 0; i < slots; i++ {
		w, err := dist.NewWorker(dist.WorkerConfig{Name: fmt.Sprintf("w%d", i), Capacity: 1, Factory: factory})
		if err != nil {
			f.stop()
			return nil, err
		}
		conn, err := tr.Dial(l.Addr())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(ctx, conn) // ends when the coordinator closes the connection
		}()
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := f.coord.WaitForWorkers(wctx, slots); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// specFactory builds simulators from lease specs as simcal-worker does,
// behind a timing decorator recording loss.busy_s spans into log.
func specFactory(log *spanLog) dist.Factory {
	return func(spec []byte) (core.Simulator, error) {
		sim, err := simspec.BuildSimulator(spec)
		if err != nil {
			return nil, err
		}
		return timed(sim, log, "loss.busy_s", ""), nil
	}
}

func (f *fleet) stop() {
	f.coord.Close()
	f.l.Close()
	f.cancel()
	f.wg.Wait()
}

// mpiFleet is W2, mpi-rand-fleet: the default MPI spec calibrated with
// RAND on a coordinator and 2 workers over TCP on 127.0.0.1.
type mpiFleet struct {
	seed  int64
	spec  []byte
	local core.Simulator // for the untimed serial reference
	space core.Space
	fl    *fleet
	log   spanLog
}

func (m *mpiFleet) setup(string) (time.Duration, error) {
	sp := mpiSpec(m.seed)
	sim, space, build, err := buildSpec(sp)
	if err != nil {
		return 0, err
	}
	m.local, m.space = sim, space
	if m.spec, err = sp.Canonical(); err != nil {
		return 0, err
	}
	m.fl, err = startFleet(dist.TCP{}, "127.0.0.1:0", specFactory(&m.log))
	return build, err
}

func (m *mpiFleet) teardown() {
	if m.fl != nil {
		m.fl.stop()
		m.fl = nil
	}
}

func (m *mpiFleet) stateDir() string { return "" }

func (m *mpiFleet) round(r int, traced bool) ([]*calRecord, roundStats, error) {
	// Workers stays 0: the remote evaluator's capacity hint sets the
	// batch width, as it does in simcal -listen.
	cal := core.Calibrator{
		Space: m.space, Simulator: m.fl.coord.Evaluator(m.spec), Algorithm: algorithm("RAND"),
		MaxEvaluations: mpiEvals, Seed: m.seed*1000 + int64(r),
	}
	rec, st, err := runBatch(fmt.Sprintf("mpi-%d", r), cal, &m.log, traced, false, "dist.remote_s")
	if err != nil {
		return nil, st, err
	}
	return []*calRecord{rec}, st, nil
}

func (m *mpiFleet) check(recs []*calRecord) (int, []string) {
	checks, failures := checkRecorded("mpi-rand-fleet", m.seed, recs)
	if len(recs) == 0 {
		return checks, failures
	}
	first := recs[0]
	serial, err := (&core.Calibrator{
		Space: m.space, Simulator: m.local, Algorithm: algorithm("RAND"),
		MaxEvaluations: mpiEvals, Workers: 1, Seed: first.seed,
	}).Run(context.Background())
	checks++
	switch {
	case err != nil:
		failures = append(failures, "serial reference: "+err.Error())
	case fingerprint(serial) != fingerprint(first.res):
		failures = append(failures, first.id+": fleet result differs from a local serial run of the same seed")
	}
	return checks, failures
}

// svcAsync is W3, svc-async-durable: an in-process service.Server with
// a state dir on disk, a shared cache and MaxRunning 2, backed by
// JobEvaluators on a 2-worker loopback fleet.
type svcAsync struct {
	seed    int64
	dir     string
	state   string
	wf, mpi json.RawMessage
	wfSim   core.Simulator // built in setup and never leased: the fresh re-evaluator
	mpiSim  core.Simulator
	mpiSp   core.Space
	fl      *fleet
	srv     *service.Server
	cache   *cache.Cache
	log     spanLog
	setups  int

	submits []time.Duration // Submit call times of traced rounds
}

func (s *svcAsync) setup(dir string) (time.Duration, error) {
	s.dir = dir
	var build time.Duration
	for _, sp := range []simspec.Spec{wfSpec(s.seed), mpiSpec(s.seed)} {
		sim, space, d, err := buildSpec(sp)
		if err != nil {
			return 0, err
		}
		build += d
		b, err := sp.Canonical()
		if err != nil {
			return 0, err
		}
		if sp.Case == "wf" {
			s.wf, s.wfSim = b, sim
		} else {
			s.mpi, s.mpiSim, s.mpiSp = b, sim, space
		}
	}
	fl, err := startFleet(dist.NewLoopback(), "", specFactory(&s.log))
	if err != nil {
		return 0, err
	}
	s.fl = fl
	s.setups++
	s.state = filepath.Join(dir, fmt.Sprintf("state-%d", s.setups))
	if err := os.MkdirAll(s.state, 0o755); err != nil {
		return 0, err
	}
	s.cache = cache.New(nil)
	s.srv, err = service.NewServer(service.Config{
		Backend: func(job string, spec json.RawMessage) (core.Simulator, error) {
			ev := fl.coord.JobEvaluator(job, spec)
			if s.log.on.Load() {
				return timed(ev, &s.log, "dist.remote_s", job), nil
			}
			return ev, nil
		},
		CancelJob:  fl.coord.CancelJob,
		MaxRunning: 2,
		StateDir:   s.state,
		Cache:      s.cache,
	})
	return build, err
}

func (s *svcAsync) teardown() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.fl != nil {
		s.fl.stop()
		s.fl = nil
	}
}

func (s *svcAsync) stateDir() string { return s.state }

// round submits four jobs at once for two tenants: one wf async-bo job
// each with distinct seeds, and one mpi BO-GP job each with the same
// spec and seed, so the second of that pair is served from the cache.
func (s *svcAsync) round(r int, traced bool) ([]*calRecord, roundStats, error) {
	seed := s.seed*1000 + int64(r)
	reqs := []service.JobRequest{
		{Tenant: "alice", Spec: s.wf, Algorithm: "async-bo", MaxEvals: svcEvals, Seed: 2 * seed},
		{Tenant: "alice", Spec: s.mpi, Algorithm: "BO-GP", MaxEvals: svcEvals, Seed: seed},
		{Tenant: "bob", Spec: s.wf, Algorithm: "async-bo", MaxEvals: svcEvals, Seed: 2*seed + 1},
		{Tenant: "bob", Spec: s.mpi, Algorithm: "BO-GP", MaxEvals: svcEvals, Seed: seed},
	}
	if traced {
		s.log.drain()
		s.log.on.Store(true)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		t0 := time.Now()
		j, err := s.srv.Submit(req)
		if traced {
			s.submits = append(s.submits, time.Since(t0))
		}
		if err != nil {
			s.log.on.Store(false)
			return nil, roundStats{}, fmt.Errorf("submit: %w", err)
		}
		ids[i] = j.ID
	}
	sts := make([]service.JobStatus, len(ids))
	for pending := len(ids); pending > 0; {
		time.Sleep(2 * time.Millisecond)
		pending = 0
		for i, id := range ids {
			st, _ := s.srv.Status(id)
			sts[i] = st
			if !st.State.Terminal() {
				pending++
			}
		}
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	s.log.on.Store(false)
	stats := roundStats{wall: end.Sub(start), alloc: after.TotalAlloc - before.TotalAlloc}
	var spans []span
	if traced {
		spans = s.log.drain()
	}
	recs := make([]*calRecord, len(ids))
	for i, st := range sts {
		if st.State != service.StateDone {
			return nil, stats, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		res, err := awaitResult(filepath.Join(s.state, st.ID+".result.json"))
		if err != nil {
			return nil, stats, err
		}
		submitted, started, finished := time.Unix(0, st.SubmittedUnixNS), time.Unix(0, st.StartedUnixNS), time.Unix(0, st.FinishedUnixNS)
		rec := &calRecord{id: st.ID, seed: reqs[i].Seed, wall: finished.Sub(submitted), res: res, ttt: timeToTarget(res)}
		if traced {
			rec.tree = jobTree(st.ID, submitted, started, finished, spans)
			rec.runPhase = finished.Sub(started)
		}
		recs[i] = rec
	}
	// The BO-GP pair's trajectory is bitwise fixed; time to target is
	// taken from the job that ran its simulations, not the cached twin.
	bo := recs[1]
	if recs[3].ttt > bo.ttt {
		bo = recs[3]
	}
	bo.hasTTT = true
	return recs, stats, nil
}

// jobTree builds one service job's span tree: the job's turnaround,
// its wait in the service queue, and its remote leases with the worker
// simulator runs inside them. Time in proposals, cache hits,
// checkpoints and the journal has no outside boundary yet and stays in
// budget.unaccounted_s.
func jobTree(job string, submitted, started, finished time.Time, spans []span) *tree {
	t := newTree("budget.unaccounted_s", job, submitted, finished)
	t.add(span{name: "service.queue_s", start: submitted, end: started}, 0)
	callsByKey := map[string][]int{}
	for _, s := range spans {
		if s.cal == job {
			if i := t.add(s, 0); i >= 0 {
				callsByKey[s.key] = append(callsByKey[s.key], i)
			}
		}
	}
	for _, s := range spans {
		if s.cal == "" {
			if parent := t.containing(callsByKey[s.key], s.start, -1); parent >= 0 {
				t.add(s, parent)
			}
		}
	}
	return t
}

// awaitResult reads a done job's result file. The server reports a job
// done before it writes the file, so the file is given two seconds to
// appear; a done job without one after that is a failure.
func awaitResult(path string) (*core.Result, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		f, err := os.Open(path)
		if err == nil {
			defer f.Close()
			return core.ReadResult(f)
		}
		if !errors.Is(err, fs.ErrNotExist) || time.Now().After(deadline) {
			return nil, fmt.Errorf("result file: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *svcAsync) check(recs []*calRecord) (int, []string) {
	checks, failures := checkRecorded("svc-async-durable", s.seed, recs)
	for i := 0; i+3 < len(recs); i += 4 {
		a, b := recs[i+1], recs[i+3]
		checks++
		if fingerprint(a.res) != fingerprint(b.res) {
			failures = append(failures, fmt.Sprintf("%s and %s: duplicate BO-GP jobs differ", a.id, b.id))
		}
		if i == 0 {
			// One serial reference per run keeps the untimed tail short.
			serial, err := (&core.Calibrator{
				Space: s.mpiSp, Simulator: s.mpiSim, Algorithm: algorithm("BO-GP"),
				MaxEvaluations: svcEvals, Workers: 1, Seed: a.seed,
			}).Run(context.Background())
			checks++
			switch {
			case err != nil:
				failures = append(failures, "serial reference: "+err.Error())
			case fingerprint(serial) != fingerprint(a.res):
				failures = append(failures, a.id+": BO-GP job differs from a local serial run")
			}
		}
		for _, r := range []*calRecord{recs[i], recs[i+2]} {
			checks++
			if !reevaluates(s.wfSim, r.res) {
				failures = append(failures, r.id+": async best loss does not re-evaluate bitwise")
			}
		}
	}
	return checks, failures
}
