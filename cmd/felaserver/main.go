// Command felaserver runs the real-time Fela coordinator (Token Server +
// BSP synchronizer) on a TCP address and trains a real MLP on the
// deterministic synthetic dataset together with felaworker processes.
//
// Start the server, then launch -workers felaworker processes pointing
// at the printed address:
//
//	felaserver -addr 127.0.0.1:7070 -workers 4 -iters 20
//	felaworker -addr 127.0.0.1:7070 -wid 0   (… one per worker id)
//
// The server prints per-iteration loss, the token distribution across
// workers, and verifies the result bit-for-bit against the sequential
// reference.
//
// With -worker-timeout set, the session is fault tolerant: workers that
// crash, hang or corrupt the wire are declared dead, their outstanding
// tokens are retrained by the survivors, the run completes on whoever
// is left, and a fault summary is printed at the end. The result stays
// bit-identical to the sequential reference regardless of which workers
// died.
//
// With -elastic, membership is live: the server keeps accepting
// connections for the whole session, so additional `felaworker -join`
// processes become workers at the next iteration barrier, workers may
// drain out gracefully (`felaworker -drain-after N`), and the online
// re-tuner reshapes the token distribution from live per-iteration
// timings after every scale event. -min-workers bounds eviction,
// -max-workers bounds admission. Elastic mode implies fault tolerance
// (a default -worker-timeout is applied if none is set).
//
// With -jobs, the server becomes a multi-tenant job manager instead of
// a single session: `felaworker -pool` processes register once into a
// shared elastic pool, clients submit training jobs over the same port,
// and the -alloc policy (fair-share, priority, throughput-max, oasis)
// decides how the pool is divided, migrating workers between jobs
// through their normal elastic drain/join machinery. Every completed
// job is verified bit-identical to the same job trained alone.
// -max-jobs makes the server exit after that many completions (demo/CI
// mode). -admission gates arrivals with an online admission policy
// (oasis rejects work the pool could only serve past its SLO).
//
// With -cluster-trace, the server replays a recorded JSONL arrival
// trace (see internal/workload) against its own pool on the trace's
// open-loop clock — -trace-scale speeds the clock up — prints a
// cluster summary (admitted/rejected, SLO attainment) when every
// submission has settled, then drains and exits.
//
// With -durable-dir, the server is crash-safe: every scheduling
// decision is appended to a write-ahead ledger under that directory
// before it is acknowledged, and model checkpoints are committed at
// iteration boundaries every -ckpt-every iterations. On boot the
// ledger is replayed and the latest checkpoints are loaded, so a
// killed server restarted on the same directory resumes where it
// died — bit-identical to a run that was never interrupted — while
// workers reconnect through their normal retry (-pool / -retries)
// loops. /healthz serves 503 "restoring" until replay and worker
// rejoin complete. -standby starts a warm standby instead: it tails
// the ledger while another felaserver holds the directory lock and
// takes over the moment the primary dies.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"fela/internal/durable"
	"fela/internal/elastic"
	"fela/internal/jobs"
	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
	"fela/internal/workload"
)

// sessionConfig derives the shared session parameters both server and
// workers must agree on (see cmd/felaworker).
func sessionConfig(workers, iters int, workerTimeout time.Duration) (rt.Config, func() *minidnn.Network, *minidnn.Dataset) {
	cfg := rt.Config{
		Workers:       workers,
		TotalBatch:    64,
		TokenBatch:    8,
		Iterations:    iters,
		LR:            0.05,
		WorkerTimeout: workerTimeout,
	}
	mk := func() *minidnn.Network { return minidnn.NewMLP(42, 16, 32, 4) }
	ds := minidnn.SyntheticBlobs(7, 256, 16, 4)
	return cfg, mk, ds
}

// elasticOpts bundles the live-membership flags.
type elasticOpts struct {
	enabled    bool
	minWorkers int
	maxWorkers int
}

// obsOpts bundles the telemetry flags. Both default to off, keeping the
// uninstrumented fast path.
type obsOpts struct {
	// statusAddr, when set, serves /metrics, /statusz, /trace and
	// /debug/pprof on that address for the whole session.
	statusAddr string
	// traceJSON, when set, writes the session's distributed spans as
	// Chrome trace_event JSON to that file when the session ends.
	traceJSON string
}

func (o obsOpts) enabled() bool { return o.statusAddr != "" || o.traceJSON != "" }

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "address to listen on")
	workers := flag.Int("workers", 4, "number of workers to wait for")
	iters := flag.Int("iters", 20, "iterations to train")
	workerTimeout := flag.Duration("worker-timeout", 0,
		"fault tolerance: declare a worker dead after this long without progress (0 = strict mode, any fault aborts)")
	elasticMode := flag.Bool("elastic", false,
		"live membership: accept felaworker -join connections for the whole session and re-tune on scale events")
	minWorkers := flag.Int("min-workers", 1, "elastic: never evict below this many live workers")
	maxWorkers := flag.Int("max-workers", 0, "elastic: admission cap for joiners (0 = unbounded)")
	statusAddr := flag.String("status-addr", "",
		"serve live telemetry (/metrics, /statusz, /trace, /debug/pprof) on this address (empty = off)")
	traceJSON := flag.String("trace-json", "",
		"write the session's spans as Chrome trace_event JSON to this file on exit (empty = off)")
	jobsMode := flag.Bool("jobs", false,
		"multi-tenant mode: run a job manager over a shared pool of felaworker -pool processes")
	alloc := flag.String("alloc", "fair-share",
		"jobs: worker allocation policy (fair-share, priority, throughput-max, oasis)")
	admission := flag.String("admission", "",
		"jobs: online admission policy gating arrivals (none, oasis; empty = admit everything)")
	maxJobs := flag.Int("max-jobs", 0,
		"jobs: shut down after this many jobs complete (0 = run until interrupted)")
	clusterTrace := flag.String("cluster-trace", "",
		"jobs: replay this JSONL arrival trace against the pool, print a cluster summary, then drain")
	traceScale := flag.Float64("trace-scale", 1,
		"jobs: speed multiplier for -cluster-trace replay (2 = twice as fast)")
	compressName := flag.String("compress", "",
		"gradient compression to permit on the report path (exact, fp16, int8, topk; empty = exact). A worker requesting the same codec gets it; everyone else degrades to lossless. Lossy codecs skip the bit-identity verification and report the convergence delta instead")
	kernelPar := flag.Int("kernel-par", 0,
		"compute-kernel fan-out: goroutines per matmul/conv (0 = GOMAXPROCS, 1 = serial)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"on SIGINT/SIGTERM, how long to wait for in-flight work before exiting anyway")
	durableDir := flag.String("durable-dir", "",
		"durability root: write-ahead decision ledger plus iteration-boundary checkpoints; on boot the ledger is replayed and the session/jobs resume (empty = off)")
	ckptEvery := flag.Int("ckpt-every", durable.DefaultEvery,
		"checkpoint interval in iterations (with -durable-dir)")
	standby := flag.Bool("standby", false,
		"warm standby: tail -durable-dir behind the live primary and take over when its lock releases")
	flag.Parse()

	// SIGQUIT dumps the flight-recorder ring as JSONL to stderr and
	// keeps running — the field-debugging hook every binary carries.
	obs.FlightDumpOnSIGQUIT("felaserver")

	tensor.SetParallelism(*kernelPar)

	oo := obsOpts{statusAddr: *statusAddr, traceJSON: *traceJSON}
	var err error
	compress, cerr := transport.ParseCompression(*compressName)
	if cerr != nil {
		err = cerr
	} else {
		var plane *durable.Plane
		if plane, err = openDurable(*durableDir, *standby); err == nil {
			du := durableOpts{plane: plane, every: *ckptEvery}
			if *jobsMode {
				jo := jobsOpts{
					alloc:      *alloc,
					admission:  *admission,
					maxJobs:    *maxJobs,
					trace:      *clusterTrace,
					traceScale: *traceScale,
				}
				err = runJobs(*addr, jo, *workerTimeout, oo, du, nil, *drainTimeout)
			} else {
				opts := elasticOpts{enabled: *elasticMode, minWorkers: *minWorkers, maxWorkers: *maxWorkers}
				err = run(*addr, *workers, *iters, *workerTimeout, opts, oo, du, nil, *drainTimeout, compress)
			}
			if plane != nil {
				if cerr := plane.Close(); err == nil {
					err = cerr
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "felaserver:", err)
		os.Exit(1)
	}
}

// durableOpts carries an opened durability plane into a serving mode.
type durableOpts struct {
	plane *durable.Plane
	every int
}

// sessionJobID is the checkpoint/ledger job id single-session mode
// files its state under (jobs mode ids are 1-based, so 0 is free).
const sessionJobID = 0

// openDurable opens the durability plane at dir (nil plane when dir is
// empty). In standby mode a locked directory is not an error: the
// standby tails the ledger behind the live primary — printing each
// decision as it commits — and takes over the moment the primary's
// flock releases (the kernel drops it on process death).
func openDurable(dir string, standby bool) (*durable.Plane, error) {
	if dir == "" {
		return nil, nil
	}
	plane, err := durable.Open(dir, durable.Options{})
	if err == nil || !standby || !errors.Is(err, durable.ErrLocked) {
		return plane, err
	}
	fmt.Printf("felaserver: standby: %s is held by a live primary, tailing its ledger\n", dir)
	tail := durable.NewTailer(dir)
	for {
		ents, terr := tail.Poll()
		if terr != nil {
			fmt.Fprintf(os.Stderr, "felaserver: standby: ledger tail: %v\n", terr)
		}
		for _, e := range ents {
			fmt.Printf("felaserver: standby: seq %d %s job=%d iter=%d\n", e.Seq, e.Op, e.JobID, e.Iter)
		}
		plane, err = durable.Open(dir, durable.Options{})
		if err == nil {
			fmt.Println("felaserver: standby: primary lock released, taking over")
			return plane, nil
		}
		if !errors.Is(err, durable.ErrLocked) {
			return nil, err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// ledgerAppend lands a decision in the ledger, best effort (session
// mode keeps serving when the disk misbehaves; the loss is printed).
func ledgerAppend(plane *durable.Plane, e durable.Entry) {
	if plane == nil {
		return
	}
	if _, err := plane.Ledger.Append(e); err != nil {
		fmt.Fprintf(os.Stderr, "felaserver: ledger append: %v\n", err)
	}
}

// jobsOpts bundles the multi-tenant mode flags.
type jobsOpts struct {
	alloc      string
	admission  string
	maxJobs    int
	trace      string
	traceScale float64
}

// signalChan returns sig as-is when tests inject their own channel,
// otherwise installs the real SIGINT/SIGTERM handler. The returned stop
// func must run before the process exits.
func signalChan(sig <-chan os.Signal) (<-chan os.Signal, func()) {
	if sig != nil {
		return sig, func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}

// runJobs serves the multi-tenant job manager: one TCP port accepts
// both pool workers and job submissions (the manager classifies each
// connection by its first message). With maxJobs > 0 the server drains
// and exits after that many completions; with a trace it drains once
// every replayed submission has settled. A signal on sig (nil = real
// SIGINT/SIGTERM) drains the manager, bounded by drainTimeout, and
// returns nil for a clean exit. With du.plane set, every scheduling
// decision write-aheads through the ledger and open jobs from a prior
// incarnation are restored before the listener opens.
func runJobs(addr string, jo jobsOpts, workerTimeout time.Duration, oo obsOpts, du durableOpts, sig <-chan os.Signal, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	pol, ok := jobs.PolicyByName(jo.alloc)
	if !ok {
		return fmt.Errorf("unknown allocation policy %q (want fair-share, priority, throughput-max or oasis)", jo.alloc)
	}
	cfg := jobs.Config{Policy: pol, WorkerTimeout: workerTimeout}
	if jo.admission != "" {
		adm, ok := jobs.AdmissionByName(jo.admission)
		if !ok {
			return fmt.Errorf("unknown admission policy %q (want none or oasis)", jo.admission)
		}
		cfg.Admission = adm
	}
	var tr workload.Trace
	if jo.trace != "" {
		var err error
		if tr, err = workload.Load(jo.trace); err != nil {
			return err
		}
	}
	if oo.enabled() {
		cfg.Metrics = obs.NewRegistry()
		cfg.Spans = obs.NewTracer("felaserver")
	}

	var mgr *jobs.Manager
	// draining flips when shutdown begins (signal, -max-jobs, trace
	// done); /healthz serves 503 from then on so orchestrators stop
	// routing new work at the pool while it winds down. restoring is
	// its boot-time mirror: 503 until the replayed jobs have workers
	// again (or there is nothing to resume).
	var draining, restoring atomic.Bool
	if du.plane != nil {
		cfg.Ledger = du.plane.Ledger
		cfg.Store = du.plane.Store
		cfg.CheckpointEvery = du.every
		st := durable.Reduce(du.plane.Entries)
		cfg.Restore = &st
		fmt.Printf("felaserver: durable: replayed %d ledger entries — %d open jobs to resume, %d settled, next id %d\n",
			len(du.plane.Entries), len(st.Jobs), st.Finished+st.Canceled, st.NextID)
		if len(st.Jobs) > 0 {
			restoring.Store(true)
		}
	}
	completedJobs := 0
	cfg.OnJobDone = func(r jobs.JobResult) {
		// Runs on the manager's event loop: serialized, and Stop is safe.
		if r.Err != nil {
			fmt.Printf("felaserver: job %d (%s) failed after %.2fs: %v\n",
				r.ID, r.Spec.Name, r.Runtime.Seconds(), r.Err)
		} else {
			verified := "DIVERGED from solo training"
			if ref, err := jobs.Reference(r.Spec); err == nil && minidnn.ParamsEqual(ref.Params, r.Result.Params) {
				verified = "bit-identical to solo training"
			}
			fmt.Printf("felaserver: job %d (%s) done: %d iters, final loss %.6f, queued %.2fs, ran %.2fs, %s\n",
				r.ID, r.Spec.Name, r.Spec.Iterations, r.Result.Losses[len(r.Result.Losses)-1],
				r.QueueWait.Seconds(), r.Runtime.Seconds(), verified)
		}
		completedJobs++
		if jo.maxJobs > 0 && completedJobs >= jo.maxJobs {
			fmt.Printf("felaserver: %d jobs complete, draining\n", completedJobs)
			draining.Store(true)
			mgr.Stop()
		}
	}
	mgr = jobs.NewManager(cfg)
	if restoring.Load() {
		// The replayed jobs sit queued until pool workers reconnect
		// through their own retry loops; /healthz flips healthy once the
		// pool has capacity again (or the restored work settles without
		// needing any, e.g. jobs whose final checkpoint already landed).
		go func() {
			for {
				select {
				case <-mgr.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
				st := mgr.Status()
				if st.Workers > 0 || st.Queued+st.Running == 0 {
					restoring.Store(false)
					fmt.Println("felaserver: durable: restore complete, pool serving")
					return
				}
			}
		}()
	}

	if oo.statusAddr != "" {
		bound, stop, err := obs.Serve(oo.statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: cfg.Metrics,
			Status:   mgr.StatusAny,
			Health: func() error {
				if restoring.Load() {
					return errors.New("restoring")
				}
				if draining.Load() {
					return errors.New("job manager is draining")
				}
				select {
				case <-mgr.Done():
					return errors.New("job manager stopped")
				default:
					return nil
				}
			},
			Tracers: []*obs.Tracer{cfg.Spans},
		}))
		if err != nil {
			mgr.Stop()
			<-mgr.Done()
			return err
		}
		defer stop()
		fmt.Printf("felaserver: telemetry on http://%s (/metrics /statusz /trace /debug/pprof)\n", bound)
	}

	l, err := transport.Listen(addr)
	if err != nil {
		mgr.Stop()
		<-mgr.Done()
		return err
	}
	defer l.Close()
	gate := "admit-all"
	if cfg.Admission != nil {
		gate = cfg.Admission.Name()
	}
	fmt.Printf("felaserver: job manager (policy %s, admission %s) listening on %s\n",
		pol.Name(), gate, l.Addr())

	if jo.trace != "" {
		// Replay the trace on its own open-loop clock, wait for every
		// submission to settle, print the cluster summary, then drain.
		go func() {
			results := make(chan jobs.JobResult, len(tr.Events))
			start := time.Now()
			submitted := workload.Replay(tr, jo.traceScale, mgr.Done(), func(e workload.Event) {
				_, ch, err := mgr.SubmitJob(e.Spec, jobs.SubmitOptions{SLO: e.SLO})
				if err != nil {
					results <- jobs.JobResult{Spec: e.Spec, SLO: e.SLO, Err: err}
					return
				}
				go func() { results <- <-ch }()
			})
			var rejected, failed, completed, met int
			for i := 0; i < submitted; i++ {
				switch r := <-results; {
				case errors.Is(r.Err, jobs.ErrRejected):
					rejected++
				case r.Err != nil:
					failed++
				default:
					completed++
					if r.SLO > 0 && r.QueueWait+r.Runtime <= r.SLO {
						met++
					}
				}
			}
			fmt.Printf("felaserver: trace %q replayed in %.2fs: %d submitted, %d rejected, %d completed, %d failed, SLO attainment %.3f\n",
				tr.Name, time.Since(start).Seconds(), submitted, rejected, completed, failed,
				float64(met)/float64(max(submitted, 1)))
			draining.Store(true)
			mgr.Stop()
		}()
	}

	// A signal starts the drain: the manager stops, which closes the
	// listener below and unblocks Accept. The deadline closes the
	// listener even if the pool never finishes draining.
	sigCh, stopSig := signalChan(sig)
	defer stopSig()
	go func() {
		select {
		case s := <-sigCh:
			fmt.Printf("felaserver: %v received, draining job manager (timeout %s)\n", s, drainTimeout)
			draining.Store(true)
			mgr.Stop()
			select {
			case <-mgr.Done():
			case <-time.After(drainTimeout):
				fmt.Println("felaserver: drain deadline passed, closing listener")
				l.Close()
			}
		case <-mgr.Done():
		}
	}()

	// Unblock Accept once the manager drains so the server can exit.
	go func() {
		<-mgr.Done()
		l.Close()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			break
		}
		mgr.Admit(c)
	}
	draining.Store(true)
	mgr.Stop()
	select {
	case <-mgr.Done():
	case <-time.After(drainTimeout):
		fmt.Println("felaserver: drain deadline passed with the pool still busy, exiting")
		return nil
	}

	if oo.traceJSON != "" {
		f, err := os.Create(oo.traceJSON)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, cfg.Spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("felaserver: wrote span trace to %s\n", oo.traceJSON)
	}
	fmt.Printf("felaserver: job manager drained (%d jobs served)\n", completedJobs)
	return nil
}

// run serves one synchronous training session. A signal on sig (nil =
// real SIGINT/SIGTERM) stops accepting joiners and waits up to
// drainTimeout for the in-flight session to finish before exiting 0.
// With du.plane set the session checkpoints through the durability
// plane and resumes from the latest checkpoint on boot; /healthz
// serves 503 "restoring" until the initial worker set has rejoined.
func run(addr string, workers, iters int, workerTimeout time.Duration, opts elasticOpts, oo obsOpts, du durableOpts, sig <-chan os.Signal, drainTimeout time.Duration, compress transport.Compression) error {
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	if opts.enabled && workerTimeout == 0 {
		// Elastic membership rides on the fault-tolerant machinery (a
		// drain is a planned death); give it a generous default deadline.
		workerTimeout = 10 * time.Second
	}
	cfg, mk, ds := sessionConfig(workers, iters, workerTimeout)
	cfg.Compress = compress

	var draining, restoring atomic.Bool
	if du.plane != nil {
		ckpt, err := du.plane.Store.Load(sessionJobID)
		if err != nil {
			return err
		}
		if ckpt != nil && ckpt.Iter+1 >= iters {
			// The final checkpoint committed before the crash: the crash
			// ate only the verification and exit, so no workers are needed.
			return finishFromCheckpoint(cfg, mk, ds, ckpt)
		}
		if ckpt != nil {
			cfg.Resume = &rt.Resume{Iter: ckpt.Iter, Params: ckpt.Params, Vel: ckpt.Vel, Losses: ckpt.Losses}
			fmt.Printf("felaserver: durable: resuming from checkpoint at iteration %d/%d\n", ckpt.Iter, iters)
		}
		cfg.CheckpointEvery = du.every
		// Store-before-ledger: the checkpoint frame commits, then the
		// barrier lands in the ledger. A failure aborts the session — the
		// coordinator must never run ahead of state it claims is durable.
		cfg.Checkpoint = func(iter int, params, vel [][]float32, losses []float64) error {
			c := &durable.Checkpoint{JobID: sessionJobID, Iter: iter, Params: params, Vel: vel, Losses: losses}
			if err := du.plane.Store.Save(c); err != nil {
				return err
			}
			_, err := du.plane.Ledger.Append(durable.Entry{Op: durable.OpBarrier, JobID: sessionJobID, WID: -1, Iter: iter})
			return err
		}
		// 503 until every initial worker has (re)connected.
		restoring.Store(true)
	}

	if oo.enabled() {
		cfg.Metrics = obs.NewRegistry()
		cfg.Spans = obs.NewTracer("felaserver")
	}

	var ctrl *elastic.Controller
	if opts.enabled {
		var err error
		ctrl, err = elastic.NewController(elastic.Config{
			MinWorkers: opts.minWorkers,
			MaxWorkers: opts.maxWorkers,
		})
		if err != nil {
			return err
		}
		ctrl.SetObs(cfg.Metrics)
		cfg.Elastic = ctrl
	}

	// Build the coordinator before listening so a bad configuration
	// (e.g. a negative -worker-timeout) fails immediately instead of
	// after all workers have connected.
	co, err := rt.NewCoordinator(mk(), cfg)
	if err != nil {
		return err
	}
	if oo.statusAddr != "" {
		bound, stop, err := obs.Serve(oo.statusAddr, obs.NewHandler(obs.HandlerOptions{
			Registry: cfg.Metrics,
			Status:   co.StatusAny,
			Health: func() error {
				if restoring.Load() {
					return errors.New("restoring")
				}
				if draining.Load() {
					return errors.New("session is draining")
				}
				return nil
			},
			Tracers: []*obs.Tracer{cfg.Spans},
		}))
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("felaserver: telemetry on http://%s (/metrics /statusz /trace /debug/pprof)\n", bound)
	}
	l, err := transport.Listen(addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("felaserver: listening on %s, waiting for %d workers\n", l.Addr(), workers)

	sigCh, stopSig := signalChan(sig)
	defer stopSig()

	// Accept on a channel so a signal during the wait-for-workers phase
	// still exits cleanly instead of blocking in Accept forever.
	connCh := make(chan transport.Conn)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			connCh <- c
		}
	}()
	conns := make([]transport.Conn, 0, workers)
	for len(conns) < workers {
		select {
		case c := <-connCh:
			conns = append(conns, c)
			ledgerAppend(du.plane, durable.Entry{Op: durable.OpJoin, JobID: sessionJobID, WID: len(conns) - 1})
			fmt.Printf("felaserver: worker connection %d/%d\n", len(conns), workers)
		case <-acceptDone:
			return fmt.Errorf("listener closed with %d/%d workers connected", len(conns), workers)
		case s := <-sigCh:
			fmt.Printf("felaserver: %v received with %d/%d workers connected, exiting\n", s, len(conns), workers)
			ledgerAppend(du.plane, durable.Entry{Op: durable.OpDrain, JobID: sessionJobID, WID: -1})
			for _, c := range conns {
				c.Close()
			}
			return nil
		}
	}
	// Replay and rejoin are complete: the session is about to train.
	restoring.Store(false)
	if opts.enabled {
		// Keep admitting joiners for the rest of the session; the loop
		// ends when the deferred l.Close() unblocks Accept.
		go func() {
			for c := range connCh {
				if err := co.Admit(c); err != nil {
					c.Close()
					return
				}
				fmt.Println("felaserver: admitted a join candidate (effective at the next barrier)")
			}
		}()
	}

	// Run the session racing the signal: on SIGINT/SIGTERM stop
	// accepting joiners and give the in-flight session drainTimeout to
	// reach its natural barrier-aligned end before exiting anyway.
	type runOutcome struct {
		res *rt.Result
		err error
	}
	runCh := make(chan runOutcome, 1)
	go func() {
		res, err := co.Run(conns)
		runCh <- runOutcome{res, err}
	}()
	var res *rt.Result
	select {
	case o := <-runCh:
		if o.err != nil {
			return o.err
		}
		res = o.res
	case s := <-sigCh:
		fmt.Printf("felaserver: %v received, draining session (timeout %s)\n", s, drainTimeout)
		draining.Store(true)
		ledgerAppend(du.plane, durable.Entry{Op: durable.OpDrain, JobID: sessionJobID, WID: -1})
		l.Close() // no more joiners
		select {
		case o := <-runCh:
			if o.err != nil {
				return o.err
			}
			res = o.res
		case <-time.After(drainTimeout):
			fmt.Println("felaserver: drain deadline passed with the session still running, exiting")
			return nil
		}
	}
	for i, loss := range res.Losses {
		fmt.Printf("iteration %3d: loss %.6f\n", i, loss)
	}
	fmt.Printf("tokens per worker: %v (steals: %d)\n", res.TokensByWorker, res.Steals)
	if len(res.Scales) > 0 {
		fmt.Printf("scale events: %v\n", metrics.ScaleSequence(res.Scales))
		for _, ev := range res.Scales {
			fmt.Println("  " + ev.String())
		}
	}
	if ctrl != nil && ctrl.Retuner().Retunes() > 0 {
		fmt.Printf("re-tunes: %d; final shares: %v\n", ctrl.Retuner().Retunes(), ctrl.Retuner().Shares())
	}
	if len(res.Faults) > 0 {
		st := metrics.SummarizeFaults(res.Faults)
		fmt.Printf("faults: %d (by class: %v), dead workers: %v, tokens reassigned: %d\n",
			st.Total, st.ByClass, res.DeadWorkers, res.Reassigned)
		for _, ev := range res.Faults {
			fmt.Println("  " + ev.String())
		}
	}

	if oo.traceJSON != "" {
		f, err := os.Create(oo.traceJSON)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, cfg.Spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("felaserver: wrote span trace to %s (load in Perfetto / chrome://tracing)\n", oo.traceJSON)
	}

	ref, err := rt.Sequential(mk(), ds, cfg)
	if err != nil {
		return err
	}
	if cfg.Compress != transport.CompressExact {
		// Lossy gradient compression gives up the bit-identical guarantee
		// by design; report how far the quantization moved the final loss
		// instead of demanding equality.
		refLoss := ref.Losses[len(ref.Losses)-1]
		gotLoss := res.Losses[len(res.Losses)-1]
		fmt.Printf("lossy compression (%v): final loss %.6f vs sequential %.6f (delta %+.6f)\n",
			cfg.Compress, gotLoss, refLoss, gotLoss-refLoss)
		return nil
	}
	if minidnn.ParamsEqual(ref.Params, res.Params) {
		fmt.Println("verified: distributed result is bit-identical to sequential SGD")
	} else {
		return fmt.Errorf("distributed result diverged from sequential reference")
	}
	return nil
}

// finishFromCheckpoint settles a session whose final checkpoint
// already covers every iteration: the crash ate only the verification
// and exit, so the model is rebuilt from the frame and verified
// against the sequential reference without waiting for any workers.
func finishFromCheckpoint(cfg rt.Config, mk func() *minidnn.Network, ds *minidnn.Dataset, ckpt *durable.Checkpoint) error {
	fmt.Printf("felaserver: durable: checkpoint at iteration %d already covers the session, verifying\n", ckpt.Iter)
	net := mk()
	if err := rt.InstallFlat(net.Params(), ckpt.Params); err != nil {
		return err
	}
	for i, loss := range ckpt.Losses {
		fmt.Printf("iteration %3d: loss %.6f\n", i, loss)
	}
	refCfg := cfg
	refCfg.Resume = nil
	refCfg.Checkpoint = nil
	ref, err := rt.Sequential(mk(), ds, refCfg)
	if err != nil {
		return err
	}
	if !minidnn.ParamsEqual(ref.Params, net.Params()) {
		return fmt.Errorf("restored checkpoint diverged from sequential reference")
	}
	fmt.Println("verified: restored result is bit-identical to sequential SGD")
	return nil
}
