package main

// The two live-training workloads: a 2-worker TCP session of the rt
// engine (binary codec, exact gradients), repeated back to back for the
// measured window. Every session trains the same seeded inputs for the
// same iteration count, so one rt.Sequential run is the bit-identity
// reference for all of them.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fela/internal/durable"
	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// trainSpec is one training workload's fixed shape. Only the model and
// dataset seeds come from --seed.
type trainSpec struct {
	iters      int // per session
	totalBatch int
	tokenBatch int
	lr         float32
	momentum   float32
	// ckptEvery > 0 checkpoints through a durable.DiskStore at that
	// interval (plus the final iteration).
	ckptEvery int
	samples   int
	newNet    func(seed int64) *minidnn.Network
	newData   func(seed int64, n int) *minidnn.Dataset
}

const trainWorkers = 2

var trainMeaning = map[string]string{
	"throughput_per_s": "tokens trained per second of session wall time, median over the sessions (tokens_per_s)",
	"latency_ms_p50":   "iteration wall time, median over every iteration of every session (iter_ms_p50)",
	"latency_ms_p90":   "iteration wall time, 90th percentile (iter_ms_p90)",
	"peak_heap_mb":     "peak live heap (bytes the collector marked live) during the measured window",
	"setup_s":          "listener, dials, model replicas, coordinator and workers up until Run starts; median over the sessions and 8 set-ups torn down unrun",
}

var cnnCompute = workloadDef{
	name:    "cnn-compute",
	meaning: trainMeaning,
	prepare: func(seed int64, work string) (runner, error) {
		return newTrainRunner(trainSpec{
			iters: 25, totalBatch: 64, tokenBatch: 8, lr: 0.01, samples: 64,
			newNet: func(s int64) *minidnn.Network { return minidnn.NewCNN(s, 3, 32, 32, 16, 64, 10) },
			newData: func(s int64, n int) *minidnn.Dataset {
				return minidnn.SyntheticImages(s, n, 3, 32, 32, 10)
			},
		}, seed, work)
	},
}

var wideSync = workloadDef{
	name:    "wide-sync",
	meaning: trainMeaning,
	prepare: func(seed int64, work string) (runner, error) {
		return newTrainRunner(trainSpec{
			iters: 24, totalBatch: 32, tokenBatch: 4, lr: 0.01, momentum: 0.9, ckptEvery: 8, samples: 32,
			newNet:  func(s int64) *minidnn.Network { return minidnn.NewMLP(s, 64, 1024, 1024, 10) },
			newData: func(s int64, n int) *minidnn.Dataset { return minidnn.SyntheticBlobs(s, n, 64, 10) },
		}, seed, work)
	},
}

// trainInputs are everything --seed decides for a training workload.
type trainInputs struct {
	netSeed, dataSeed int64
}

func newTrainInputs(seed int64) trainInputs {
	rng := rand.New(rand.NewSource(seed))
	return trainInputs{netSeed: rng.Int63n(1<<31) + 1, dataSeed: rng.Int63n(1<<31) + 1}
}

type trainRunner struct {
	spec  trainSpec
	in    trainInputs
	ds    *minidnn.Dataset
	store *durable.DiskStore
	work  string

	ref        *rt.Result
	seqSeconds float64
}

func newTrainRunner(spec trainSpec, seed int64, work string) (*trainRunner, error) {
	t := &trainRunner{spec: spec, in: newTrainInputs(seed), work: work}
	t.ds = spec.newData(t.in.dataSeed, spec.samples)
	if spec.ckptEvery > 0 {
		st, err := durable.NewDiskStore(filepath.Join(work, "durable"), durable.Options{})
		if err != nil {
			return nil, err
		}
		t.store = st
	}
	// The reference every session must match bit for bit.
	start := time.Now()
	ref, err := rt.Sequential(spec.newNet(t.in.netSeed), t.ds, t.config())
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	t.seqSeconds = time.Since(start).Seconds()
	t.ref = ref
	return t, nil
}

func (t *trainRunner) config() rt.Config {
	return rt.Config{
		Workers:    trainWorkers,
		TotalBatch: t.spec.totalBatch,
		TokenBatch: t.spec.tokenBatch,
		Iterations: t.spec.iters,
		LR:         t.spec.lr,
		Momentum:   t.spec.momentum,
	}
}

func (t *trainRunner) tokensPerIter() int { return t.spec.totalBatch / t.spec.tokenBatch }

// sessionTrace is what a traced session's wrappers collected.
type sessionTrace struct {
	log    *tapLog
	layers []*layerLog
	ckpt   []float64 // ms per checkpoint save
}

// sessionOut is one session's measured outcome.
type sessionOut struct {
	setup   time.Duration
	runWall time.Duration
	iterMs  []float64
	res     *rt.Result
}

// trainSession is one session brought up and ready to run.
type trainSession struct {
	l          *transport.Listener
	workerEnds []transport.Conn
	conns      []transport.Conn // coordinator ends, tapped when traced
	taps       []*workerTap
	workers    []*rt.Worker
	co         *rt.Coordinator
}

func (s *trainSession) close() {
	for i := range s.conns {
		if s.workerEnds[i] != nil {
			s.workerEnds[i].Close()
		}
		if s.conns[i] != nil {
			s.conns[i].Close()
		}
	}
	s.l.Close()
}

// up brings a session up — listener, both ends of every worker
// connection, model replicas, workers and coordinator — which is what
// setup_s times. tr is nil for an untraced session.
func (t *trainRunner) up(tr *sessionTrace) (*trainSession, error) {
	cfg := t.config()
	if t.store != nil {
		cfg.CheckpointEvery = t.spec.ckptEvery
		cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
			t0 := time.Now()
			err := t.store.Save(&durable.Checkpoint{JobID: 0, Iter: iter, Params: params, Vel: vel, Losses: losses})
			if tr != nil {
				tr.ckpt = append(tr.ckpt, float64(time.Since(t0))/1e6)
			}
			return err
		}
	}
	l, err := transport.ListenCodec("127.0.0.1:0", transport.CodecBinary)
	if err != nil {
		return nil, err
	}
	s := &trainSession{
		l:          l,
		workerEnds: make([]transport.Conn, trainWorkers),
		conns:      make([]transport.Conn, trainWorkers),
		taps:       make([]*workerTap, trainWorkers),
		workers:    make([]*rt.Worker, trainWorkers),
	}
	// Dial and accept in turn: a TCP dial completes against the listen
	// backlog.
	for i := range s.conns {
		if s.workerEnds[i], err = transport.DialCodec(l.Addr(), transport.CodecBinary); err != nil {
			s.close()
			return nil, err
		}
		if s.conns[i], err = l.Accept(); err != nil {
			s.close()
			return nil, err
		}
	}
	var log *tapLog
	if tr != nil {
		log = tr.log
		log.newSession()
		for i, c := range s.conns {
			s.conns[i] = newCoordTap(c, tr.log, false)
		}
	}
	for wid := range s.workers {
		net := t.spec.newNet(t.in.netSeed)
		if tr != nil {
			tr.layers = append(tr.layers, tapLayers(net))
		}
		s.workers[wid] = rt.NewWorker(wid, net, t.ds, cfg)
		s.taps[wid] = newWorkerTap(s.workerEnds[wid], log, wid, tr == nil)
	}
	if s.co, err = rt.NewCoordinator(t.spec.newNet(t.in.netSeed), cfg); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// session brings one session up and runs it to the end.
func (t *trainRunner) session(tr *sessionTrace) (sessionOut, error) {
	var out sessionOut
	start := time.Now()
	s, err := t.up(tr)
	if err != nil {
		return out, err
	}
	defer s.close()
	out.setup = time.Since(start)

	workerErrs := make(chan error, trainWorkers)
	for wid, w := range s.workers {
		go func(w *rt.Worker, c transport.Conn) { workerErrs <- w.Run(c) }(w, s.taps[wid])
	}
	runStart := time.Now()
	res, err := s.co.Run(s.conns)
	out.runWall = time.Since(runStart)
	if err != nil {
		s.close() // unblock the workers before waiting for them
	}
	var werr error
	for range s.workers {
		if e := <-workerErrs; e != nil && werr == nil {
			werr = e
		}
	}
	if err != nil {
		return out, err
	}
	if werr != nil {
		return out, werr
	}
	out.res = res
	if tr == nil {
		a := s.taps[0].arrivals
		for i := 1; i < len(a); i++ {
			out.iterMs = append(out.iterMs, float64(a[i].Sub(a[i-1]))/1e6)
		}
	}
	return out, nil
}

// verify checks a session's outputs: parameters bit-identical to the
// sequential reference and, with checkpointing, the last checkpoint
// loading back at the final iteration with the final parameters.
func (t *trainRunner) verify(out sessionOut, r *report) bool {
	ok := true
	if !minidnn.ParamsEqual(t.ref.Params, out.res.Params) {
		r.violate("session", "final parameters differ from rt.Sequential")
		ok = false
	}
	if t.store != nil {
		c, err := t.store.Load(0)
		switch {
		case err != nil:
			r.violate("checkpoint", "load: %v", err)
			ok = false
		case c == nil || c.Iter != t.spec.iters-1:
			r.violate("checkpoint", "last checkpoint not at iteration %d", t.spec.iters-1)
			ok = false
		default:
			if !flatEqual(c.Params, out.res.Params) {
				r.violate("checkpoint", "checkpointed parameters differ from the final parameters")
				ok = false
			} else {
				r.op("checkpoint", true)
			}
		}
	}
	return ok
}

func flatEqual(flat [][]float32, ts []*tensor.Tensor) bool {
	if len(flat) != len(ts) {
		return false
	}
	for i, t := range ts {
		if len(flat[i]) != t.Len() {
			return false
		}
		for j, v := range flat[i] {
			if v != t.Data[j] {
				return false
			}
		}
	}
	return true
}

// trainExtraSetups is how many set-ups an untraced phase measures
// before its sessions; setup_s is the median over these and the
// sessions' own.
const trainExtraSetups = 8

// maxWindowFactor caps how far past the window a run may extend to reach
// the sample count the tail percentile needs.
const maxWindowFactor = 4

func (t *trainRunner) measure(window time.Duration, traced bool, r *report) (float64, error) {
	var tr *sessionTrace
	if traced {
		tr = &sessionTrace{log: newTapLog()}
	}
	need := minSamplesFor(0.9)
	var setups, iterMs []float64
	if !traced {
		// Set-ups alone, torn down unrun, add to the sessions' own.
		for i := 0; i < trainExtraSetups; i++ {
			t0 := time.Now()
			s, err := t.up(nil)
			if err != nil {
				return 0, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			s.close()
		}
	}
	var steals, sessions int
	var imbalance, tputs []float64
	kBefore := tensor.ReadKernelStats()
	heap := startHeapPeak()
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if sessions > 0 && elapsed >= window && (len(iterMs) >= need || traced || elapsed >= maxWindowFactor*window) {
			break
		}
		out, err := t.session(tr)
		if err != nil {
			heap.Stop()
			return 0, err
		}
		sessions++
		ok := t.verify(out, r)
		r.op("session", ok)
		setups = append(setups, out.setup.Seconds())
		iterMs = append(iterMs, out.iterMs...)
		tputs = append(tputs, float64(t.spec.iters*t.tokensPerIter())/out.runWall.Seconds())
		steals += out.res.Steals
		imbalance = append(imbalance, tokenImbalance(out.res.TokensByWorker))
	}
	wall := time.Since(start)
	peak := heap.Stop()
	kAfter := tensor.ReadKernelStats()

	if !traced {
		r.setQ("throughput_per_s", tputs, 0.5)
		r.setQ("latency_ms_p50", iterMs, 0.5)
		r.setQ("latency_ms_p90", iterMs, 0.9)
		r.set("peak_heap_mb", value{V: peak})
		r.setQ("setup_s", setups, 0.5)
		return median(iterMs), nil
	}
	t.layerMetrics(tr, r, sessions, wall, kBefore, kAfter)
	r.set("rt.steals_per_iter", value{V: float64(steals) / float64(sessions*t.spec.iters), N: sessions})
	r.setQ("rt.token_imbalance", imbalance, 0.5)
	r.set("rt.seq_tokens_per_s", value{V: float64(t.spec.iters*t.tokensPerIter()) / t.seqSeconds,
		Note: "rt.Sequential on the same inputs (the bit-identity reference run)"})
	// Traced sessions have no clock-only tap; the headline comes from the
	// coordinator-side iteration walls.
	var walls []float64
	for _, b := range tr.log.breakdown() {
		walls = append(walls, b.wall)
	}
	return median(walls), nil
}

func tokenImbalance(byWorker []int) float64 {
	maxN, total := 0, 0
	for _, n := range byWorker {
		total += n
		if n > maxN {
			maxN = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxN)/(float64(total)/float64(len(byWorker))) - 1
}

// layerMetrics turns a traced phase's wrapper logs into the per-layer
// metrics.
func (t *trainRunner) layerMetrics(tr *sessionTrace, r *report, sessions int, wall time.Duration, kb, ka tensor.KernelStats) {
	kernelMetrics(r, t.spec.newNet(t.in.netSeed), t.spec.tokenBatch, kb, ka, wall)
	tokenMetrics(r, tr.layers)
	tapMetrics(r, tr.log, sessions*t.spec.iters)

	// rt coordinator: reconciliation of each iteration's parts.
	var barrier, spread, residual []float64
	for _, b := range tr.log.breakdown() {
		barrier = append(barrier, b.barrier)
		spread = append(spread, b.spread)
		residual = append(residual, b.residual/b.wall)
	}
	r.setQ("rt.coord.barrier_ms", barrier, 0.5)
	r.setQ("rt.coord.report_spread_ms", spread, 0.5)
	r.setQ("rt.iter_residual_frac", residual, 0.5)

	// durable.
	if t.store != nil {
		r.setQ("durable.checkpoint_ms", tr.ckpt, 0.5)
		if fi, err := os.Stat(filepath.Join(t.work, "durable", "ckpt", "job-0.ckpt")); err == nil {
			r.set("durable.checkpoint_mb", value{V: float64(fi.Size()) / (1 << 20)})
		}
		r.set("durable.stall_frac", value{V: sum(tr.ckpt) / float64(wall.Milliseconds()), N: len(tr.ckpt)})
	} else {
		r.na("no checkpointing in this workload", "durable.checkpoint_ms", "durable.checkpoint_mb", "durable.stall_frac")
	}
	r.na("no job manager or gateway in this workload", "jobs.submit_us", "jobs.queue_wait_ms", "jobs.runtime_ms",
		"jobs.queue_depth_max", "jobs.dials_per_job", "jobs.assign_rtt_us", "gate.submit_hold_ms",
		"gate.status_handler_us", "gate.refused_frac", "gate.submit_ms_p50", "gate.submit_ms_p99",
		"gate.settle_ms_p99", "gate.status_ms_p50", "gate.status_ms_p99")
	r.na("closed-loop training sessions: no request generator", "bench.gen_late_ms_p99", "bench.client_queue_ms_p99")
	r.na("the simulator does not run in this workload", "tuning.tune_ms", "felaengine.sim_ms_per_iter",
		"scheduler.slowpath_frac", "scheduler.helped_per_iter", "sim.samples_per_s")
}
