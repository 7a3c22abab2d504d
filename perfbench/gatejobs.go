package main

// The serving workload: an open loop of job submissions over real HTTP
// to a gate.Gateway in front of two jobs.Manager shards, each with two
// in-process pool workers doing real compute, plus a stream of status
// reads on admitted jobs. One process generates all load through
// gateClients keep-alive connections, each driven by one I/O goroutine.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fela/internal/gate"
	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

const (
	gateShards          = 2
	gateWorkersPerShard = 2
	// gateJobRate and gateReadRate are the offered loads. Each POST
	// lingers up to the gateway's AdmitWait (25 ms) and the generator
	// owns only gateClients connections, so its own queue builds above
	// roughly 200 submits/s. The rates sit far below that and below pool
	// saturation, so nothing is shed and the backlog stays flat. The job
	// rate sets how many long jobs a run holds, and the settle p90 falls
	// among them: 28 in 20 s at 10 jobs/s, 107 in 30 s at 25/s. On a
	// 2-vCPU host, five seeds run alternately at two rates spread the p90
	// (quartiles over median) 0.24 at 10/s against 0.16 at 25/s, and 0.12
	// at 25/s against 0.21 at 40/s.
	gateJobRate  = 25.0
	gateReadRate = 25.0
	// The job mix: mostly short jobs plus one long job in every seven.
	gateLongEvery  = 7
	gateShortIters = 20
	gateLongIters  = 200
	gateJobSeeds   = 8
	gateTenants    = 4
	gateClients    = 2
	// gateSetups is how many times a run brings the whole stack up; the
	// median is setup_s.
	gateSetups = 100
	// gateDrain bounds the wait for admitted jobs to settle after the
	// window.
	gateDrain = 60 * time.Second
	// gateLateLimit is the generator lateness, or wait for one of its
	// connections (p99), beyond which a run's latencies say more about
	// the generator than the gateway. The generator shares two cores with
	// the system it drives, so a few milliseconds of scheduling delay are
	// normal.
	gateLateLimit = 20 * time.Millisecond
)

var gateJobs = workloadDef{
	name: "gate-jobs",
	meaning: map[string]string{
		"throughput_per_s": "jobs settled per second, from the window start to the last settlement (offered 25/s)",
		"latency_ms_p50":   "POST due time to the job's terminal result at the shard boundary (settle_ms_p50)",
		"latency_ms_p90":   "the same, 90th percentile (settle_ms_p90; p99 is gate.settle_ms_p99)",
		"peak_heap_mb":     "peak live heap (bytes the collector marked live) during the measured window",
		"setup_s":          "managers, pool workers dialled in, gateway and HTTP listener up; median of several set-ups",
	},
	prepare: func(seed int64, work string) (runner, error) {
		return &gateRunner{seed: seed, jobs: map[string]*gateJob{}, refs: map[transport.JobSpec]*rt.Result{}}, nil
	},
}

// gateArrival is one scheduled client operation.
type gateArrival struct {
	due    time.Duration // from the window start
	submit bool
	req    gate.SubmitRequest // submits
	tenant string
	pick   float64 // reads: which admitted job, as a fraction of those admitted so far
}

// gateSchedule generates one phase's operations from the seed. Both
// streams are jittered grids — operation i falls uniformly at random in
// the i-th of round(rate·window) equal slots — and one job in every
// gateLongEvery is long, at a random position in its stratum. Every
// seed therefore offers the same load with the same mix, spread as
// evenly as an open loop allows, and seeds differ in the exact timing,
// tenants, job seeds and read targets.
func gateSchedule(seed int64, phaseIdx int, window time.Duration) []gateArrival {
	rng := rand.New(rand.NewSource(seed*7919 + int64(phaseIdx)))
	grid := func(n, i int) time.Duration {
		return time.Duration((float64(i) + rng.Float64()) / float64(n) * float64(window))
	}
	var out []gateArrival
	nJobs := int(gateJobRate*window.Seconds() + 0.5)
	stratum := gateLongEvery
	long := map[int]bool{}
	for lo := 0; lo+stratum <= nJobs; lo += stratum {
		long[lo+rng.Intn(stratum)] = true
	}
	for i := 0; i < nJobs; i++ {
		iters := gateShortIters
		if long[i] {
			iters = gateLongIters
		}
		out = append(out, gateArrival{
			due:    grid(nJobs, i),
			submit: true,
			tenant: fmt.Sprintf("t%d", rng.Intn(gateTenants)),
			req: gate.SubmitRequest{
				Model: jobs.DefaultModel, Seed: int64(1 + rng.Intn(gateJobSeeds)),
				Iterations: iters, TotalBatch: 64, TokenBatch: 8, LR: 0.05,
			},
		})
	}
	nReads := int(gateReadRate*window.Seconds() + 0.5)
	for i := 0; i < nReads; i++ {
		out = append(out, gateArrival{due: grid(nReads, i), pick: rng.Float64()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	n := 0
	for i := range out {
		if out[i].submit {
			out[i].req.Name = fmt.Sprintf("pb-%d-%d", phaseIdx, n)
			n++
		}
	}
	return out
}

type gateRunner struct {
	seed   int64
	phases int

	// jobs holds every submission by name across loads; the shard taps
	// file results into it.
	jobsMu sync.Mutex
	jobs   map[string]*gateJob
	stray  int

	mu      sync.Mutex
	refs    map[transport.JobSpec]*rt.Result
	seqToks int
	seqSecs float64
}

// reference returns the sequential reference for a normalized spec
// (name cleared), computing it once.
func (g *gateRunner) reference(spec transport.JobSpec) (*rt.Result, error) {
	spec.Name = ""
	g.mu.Lock()
	defer g.mu.Unlock()
	if ref, ok := g.refs[spec]; ok {
		return ref, nil
	}
	t0 := time.Now()
	ref, err := jobs.Reference(spec)
	if err != nil {
		return nil, err
	}
	g.seqSecs += time.Since(t0).Seconds()
	g.seqToks += spec.Iterations * spec.TotalBatch / spec.TokenBatch
	g.refs[spec] = ref
	return ref, nil
}

// gateStack is one running gateway over its shards and pool.
type gateStack struct {
	mgrs    []*jobs.Manager
	taps    []*shardTap
	gw      *gate.Gateway
	srv     *httptest.Server
	clients []*http.Client
	pool    sync.WaitGroup
	dials   atomic.Int64
	// setup is how long the system took to come up: managers, pool
	// workers dialled in, gateway and HTTP listener. The generator's own
	// client connections are opened afterwards and not counted.
	setup time.Duration
}

// up brings a stack up: managers, pool workers (each dialling through
// the benchmark's dial func), gateway, HTTP listener and warm client
// connections. With log set, pool connections are tapped on both ends.
func (g *gateRunner) up(log *tapLog, timed bool) (*gateStack, error) {
	start := time.Now()
	s := &gateStack{}
	var firstDials sync.WaitGroup
	firstDials.Add(gateShards * gateWorkersPerShard)
	var shards []gate.Shard
	for i := 0; i < gateShards; i++ {
		mgr := jobs.NewManager(jobs.Config{})
		s.mgrs = append(s.mgrs, mgr)
		for w := 0; w < gateWorkersPerShard; w++ {
			first := true
			dial := func() (transport.Conn, error) {
				select {
				case <-mgr.Done():
					return nil, fmt.Errorf("pool stopped")
				default:
				}
				s.dials.Add(1)
				worker, server := transport.Pair()
				if log != nil {
					mgr.Admit(newCoordTap(server, log, true))
					worker = newWorkerTap(worker, log, -1, false)
				} else {
					mgr.Admit(server)
				}
				if first {
					first = false
					firstDials.Done()
				}
				return worker, nil
			}
			s.pool.Add(1)
			go func() {
				defer s.pool.Done()
				_, _ = jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
			}()
		}
		tap := newShardTap(mgr, timed, g.settle)
		s.taps = append(s.taps, tap)
		shards = append(shards, tap)
	}
	gw, err := gate.New(gate.Config{Shards: shards})
	if err != nil {
		s.down()
		return nil, err
	}
	s.gw = gw
	s.srv = httptest.NewServer(gw)
	firstDials.Wait()
	s.setup = time.Since(start)
	for i := 0; i < gateClients; i++ {
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		s.clients = append(s.clients, c)
		resp, err := c.Get(s.srv.URL + "/healthz")
		if err != nil {
			s.down()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return s, nil
}

// down stops everything up started and waits for the pool workers.
func (s *gateStack) down() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, m := range s.mgrs {
		m.Stop()
	}
	for _, m := range s.mgrs {
		<-m.Done()
	}
	s.pool.Wait()
}

// gateJob is the generator's record of one submission.
type gateJob struct {
	arr      gateArrival
	dueAt    time.Time
	id       string // gateway id once admitted
	postEnd  time.Time
	settled  int
	settleAt time.Time
	res      jobs.JobResult
}

// gateLoad is what one pass of the generator collected.
type gateLoad struct {
	start                                    time.Time
	all, admitted                            []*gateJob
	genLate, clientQueue, submitMs, statusMs []float64
	posts, refused                           int
}

// settle is the shard taps' callback: it files a job's terminal result.
func (g *gateRunner) settle(name string, res jobs.JobResult, at time.Time) {
	g.jobsMu.Lock()
	defer g.jobsMu.Unlock()
	j := g.jobs[name]
	if j == nil {
		g.stray++
		return
	}
	j.settled++
	j.settleAt = at
	j.res = res
}

// drive plays one schedule against the stack as an open loop: a
// generator goroutine releases each operation at its due time to the
// client goroutines, each of which owns one keep-alive connection. It
// returns once every admitted job has settled (or gateDrain passed).
func (g *gateRunner) drive(stack *gateStack, arrivals []gateArrival, r *report) *gateLoad {
	ld := &gateLoad{start: time.Now()}
	g.jobsMu.Lock()
	for _, a := range arrivals {
		if a.submit {
			j := &gateJob{arr: a, dueAt: ld.start.Add(a.due)}
			g.jobs[a.req.Name] = j
			ld.all = append(ld.all, j)
		}
	}
	g.jobsMu.Unlock()

	type item struct {
		a      gateArrival
		pushed time.Time
	}
	queue := make(chan item, len(arrivals)) // sized to the number of sends
	go func() {
		for _, a := range arrivals {
			if d := time.Until(ld.start.Add(a.due)); d > 0 {
				time.Sleep(d)
			}
			queue <- item{a: a, pushed: time.Now()}
		}
		close(queue)
	}()
	var clients sync.WaitGroup
	for _, c := range stack.clients {
		clients.Add(1)
		go func(c *http.Client) {
			defer clients.Done()
			for it := range queue {
				begin := time.Now()
				due := ld.start.Add(it.a.due)
				late := float64(it.pushed.Sub(due)) / 1e6
				waited := float64(begin.Sub(it.pushed)) / 1e6
				if it.a.submit {
					id, code, err := postJob(c, stack.srv.URL, it.a)
					end := time.Now()
					ok := err == nil && (code == http.StatusAccepted || code == http.StatusOK)
					g.jobsMu.Lock()
					ld.genLate = append(ld.genLate, late)
					ld.clientQueue = append(ld.clientQueue, waited)
					ld.posts++
					if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
						ld.refused++
					}
					if ok {
						j := g.jobs[it.a.req.Name]
						j.id, j.postEnd = id, end
						ld.admitted = append(ld.admitted, j)
						ld.submitMs = append(ld.submitMs, float64(end.Sub(due))/1e6)
					}
					g.jobsMu.Unlock()
					if ok {
						r.op("http:POST /v1/jobs", true)
					} else {
						r.violate("http:POST /v1/jobs", "status %d: %v", code, err)
					}
					continue
				}
				g.jobsMu.Lock()
				var target *gateJob
				if n := len(ld.admitted); n > 0 {
					target = ld.admitted[int(it.a.pick*float64(n))]
				}
				g.jobsMu.Unlock()
				if target == nil {
					continue // nothing admitted yet: the read is not issued
				}
				code, err := getJob(c, stack.srv.URL, target.id, target.arr.tenant)
				end := time.Now()
				if err != nil || code != http.StatusOK {
					r.violate("http:GET /v1/jobs/{id}", "status %d: %v", code, err)
					continue
				}
				r.op("http:GET /v1/jobs/{id}", true)
				g.jobsMu.Lock()
				ld.genLate = append(ld.genLate, late)
				ld.clientQueue = append(ld.clientQueue, waited)
				ld.statusMs = append(ld.statusMs, float64(end.Sub(due))/1e6)
				g.jobsMu.Unlock()
			}
		}(c)
	}
	clients.Wait()

	deadline := time.Now().Add(gateDrain)
	for {
		g.jobsMu.Lock()
		pending := 0
		for _, j := range ld.admitted {
			if j.settled == 0 {
				pending++
			}
		}
		g.jobsMu.Unlock()
		if pending == 0 || time.Now().After(deadline) {
			return ld
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// jobStats are the settled jobs' outcomes of one load.
type jobStats struct {
	settleMs, queueWaitMs, runtimeMs, steals, imbalance []float64
	lastSettle                                          time.Time
	iters                                               int
}

// check verifies one load: every admitted job settled exactly once,
// successfully, with jobs.Reference's parameters, and nothing settled
// that was not admitted.
func (g *gateRunner) check(ld *gateLoad, r *report) jobStats {
	var st jobStats
	g.jobsMu.Lock()
	admitted := append([]*gateJob(nil), ld.admitted...)
	stray := g.stray
	g.stray = 0
	g.jobsMu.Unlock()
	if stray > 0 {
		r.violate("job", "%d results settled for jobs the generator never submitted", stray)
	}
	g.jobsMu.Lock()
	for _, j := range ld.all {
		if j.id == "" && j.settled > 0 {
			r.violate("job", "%s settled although its POST was refused", j.arr.req.Name)
		}
	}
	g.jobsMu.Unlock()
	for _, j := range admitted {
		if !g.checkJob(j, r) {
			continue
		}
		st.settleMs = append(st.settleMs, float64(j.settleAt.Sub(j.dueAt))/1e6)
		if j.settleAt.After(st.lastSettle) {
			st.lastSettle = j.settleAt
		}
		st.iters += j.arr.req.Iterations
		st.queueWaitMs = append(st.queueWaitMs, j.res.QueueWait.Seconds()*1e3)
		st.runtimeMs = append(st.runtimeMs, j.res.Runtime.Seconds()*1e3)
		st.steals = append(st.steals, float64(j.res.Result.Steals)/float64(j.arr.req.Iterations))
		st.imbalance = append(st.imbalance, tokenImbalance(j.res.Result.TokensByWorker))
	}
	return st
}

// gateWarmup is the load played, unmeasured, before each window.
const gateWarmup = 2 * time.Second

func (g *gateRunner) measure(window time.Duration, traced bool, r *report) (float64, error) {
	var log *tapLog
	if traced {
		log = newTapLog()
	}
	stack, err := g.up(log, traced)
	if err != nil {
		return 0, err
	}
	setups := []float64{stack.setup.Seconds()}
	defer stack.down()

	g.phases++
	g.check(g.drive(stack, gateSchedule(g.seed, g.phases, gateWarmup), r), r)
	if traced {
		log.reset()
		for _, tap := range stack.taps {
			tap.reset()
		}
	}
	// More set-ups, on a process the warm-up has brought to steady
	// state: throwaway stacks beside the idle measured one.
	for i := 1; i < gateSetups; i++ {
		s, err := g.up(nil, false)
		if err != nil {
			return 0, err
		}
		setups = append(setups, s.setup.Seconds())
		s.down()
	}

	// Queue depth sampler (traced only: it reads manager snapshots).
	var depthMax atomic.Int64
	stopDepth := make(chan struct{})
	var depthDone sync.WaitGroup
	if traced {
		depthDone.Add(1)
		go func() {
			defer depthDone.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				for _, m := range stack.mgrs {
					if st := m.Status(); st != nil && int64(st.Queued) > depthMax.Load() {
						depthMax.Store(int64(st.Queued))
					}
				}
				select {
				case <-stopDepth:
					return
				case <-tick.C:
				}
			}
		}()
	}

	g.phases++
	arrivals := gateSchedule(g.seed, g.phases, window)
	kBefore := tensor.ReadKernelStats()
	dialsBefore := stack.dials.Load()
	heap := startHeapPeak()
	ld := g.drive(stack, arrivals, r)
	peak := heap.Stop()
	wall := time.Since(ld.start)
	kAfter := tensor.ReadKernelStats()
	dials := stack.dials.Load() - dialsBefore
	if traced {
		close(stopDepth)
		depthDone.Wait()
	}
	st := g.check(ld, r)

	// Lateness and waits for the generator's own connections are delays
	// the generator, not the gateway, added to every latency timed from
	// the due time.
	if late, _, _ := quantile(append([]float64(nil), ld.genLate...), 0.99); late > float64(gateLateLimit)/1e6 {
		r.markInvalid("generator ran late: p99 %.2f ms > %v; latencies include the generator's own delay", late, gateLateLimit)
	}
	if wait, _, _ := quantile(append([]float64(nil), ld.clientQueue...), 0.99); wait > float64(gateLateLimit)/1e6 {
		r.markInvalid("requests waited for a generator connection: p99 %.2f ms > %v; latencies include the generator's own queue", wait, gateLateLimit)
	}
	if !traced {
		if span := st.lastSettle.Sub(ld.start).Seconds(); span > 0 {
			r.set("throughput_per_s", value{V: float64(len(st.settleMs)) / span, N: len(st.settleMs)})
		}
		r.setQ("latency_ms_p50", st.settleMs, 0.5)
		r.setQ("latency_ms_p90", st.settleMs, 0.9)
		r.set("peak_heap_mb", value{V: peak})
		r.setQ("setup_s", setups, 0.5)
		return median(st.settleMs), nil
	}

	r.setQ("gate.submit_ms_p50", ld.submitMs, 0.5)
	r.setQ("gate.submit_ms_p99", ld.submitMs, 0.99)
	r.setQ("gate.settle_ms_p99", st.settleMs, 0.99)
	r.setQ("gate.status_ms_p50", ld.statusMs, 0.5)
	r.setQ("gate.status_ms_p99", ld.statusMs, 0.99)
	var holdMs, submits []float64
	for _, tap := range stack.taps {
		tap.mu.Lock()
		submits = append(submits, tap.submits...)
		for _, j := range ld.admitted {
			if at, ok := tap.submitAt[j.arr.req.Name]; ok {
				holdMs = append(holdMs, float64(j.postEnd.Sub(at))/1e6)
			}
		}
		tap.mu.Unlock()
	}
	r.setQ("gate.submit_hold_ms", holdMs, 0.5)
	if ld.posts > 0 {
		r.set("gate.refused_frac", value{V: float64(ld.refused) / float64(ld.posts), N: ld.posts})
	}
	r.set("gate.status_handler_us", value{V: statusHandlerUs(stack.gw, ld.admitted), Note: "ServeHTTP with a recorder, no socket"})
	r.setQ("bench.gen_late_ms_p99", ld.genLate, 0.99)
	r.setQ("bench.client_queue_ms_p99", ld.clientQueue, 0.99)

	r.setQ("jobs.submit_us", submits, 0.5)
	r.setQ("jobs.queue_wait_ms", st.queueWaitMs, 0.5)
	r.setQ("jobs.runtime_ms", st.runtimeMs, 0.5)
	r.set("jobs.queue_depth_max", value{V: float64(depthMax.Load()), Note: "max over shards of Manager.Status().Queued, sampled every 10 ms"})
	if n := len(st.settleMs); n > 0 {
		r.set("jobs.dials_per_job", value{V: float64(dials) / float64(n), N: n})
	}
	log.mu.Lock()
	r.setQ("jobs.assign_rtt_us", log.assignRTT, 0.5)
	log.mu.Unlock()
	tapMetrics(r, log, st.iters)
	r.setQ("rt.steals_per_iter", st.steals, 0.5)
	r.setQ("rt.token_imbalance", st.imbalance, 0.5)
	g.mu.Lock()
	if g.seqSecs > 0 {
		r.set("rt.seq_tokens_per_s", value{V: float64(g.seqToks) / g.seqSecs, Note: "jobs.Reference runs of the job specs"})
	}
	g.mu.Unlock()
	r.na("many concurrent job sessions share the pool; per-session barriers are not reconstructed",
		"rt.coord.barrier_ms", "rt.coord.report_spread_ms", "rt.iter_residual_frac")

	mk, _, err := jobs.BuildSession(transport.JobSpec{Model: jobs.DefaultModel})
	if err != nil {
		return 0, err
	}
	kernelMetrics(r, mk(), 8, kBefore, kAfter, wall)
	directLayers(mk(), r)
	r.na("jobs run without a checkpoint store", "durable.checkpoint_ms", "durable.checkpoint_mb", "durable.stall_frac")
	r.na("the simulator does not run in this workload", "tuning.tune_ms", "felaengine.sim_ms_per_iter",
		"scheduler.slowpath_frac", "scheduler.helped_per_iter", "sim.samples_per_s")
	return median(st.settleMs), nil
}

// checkJob verifies one admitted job.
func (g *gateRunner) checkJob(j *gateJob, r *report) bool {
	g.jobsMu.Lock()
	settled, res := j.settled, j.res
	g.jobsMu.Unlock()
	name := j.arr.req.Name
	switch {
	case settled == 0:
		r.violate("job", "%s admitted but never settled", name)
		return false
	case settled > 1:
		r.violate("job", "%s settled %d times", name, settled)
		return false
	case res.Err != nil || res.Result == nil:
		r.violate("job", "%s failed: %v", name, res.Err)
		return false
	}
	ref, err := g.reference(res.Spec)
	if err != nil {
		r.violate("job", "%s reference: %v", name, err)
		return false
	}
	if !minidnn.ParamsEqual(ref.Params, res.Result.Params) {
		r.violate("job", "%s parameters differ from jobs.Reference", name)
		return false
	}
	r.op("job", true)
	return true
}

// postJob submits one job and returns the gateway's id for it.
func postJob(c *http.Client, base string, a gateArrival) (id string, code int, err error) {
	body, err := json.Marshal(a.req)
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fela-Tenant", a.tenant)
	resp, err := c.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.StatusCode, err
	}
	// 202 carries a SubmitResponse, 200 (settled within AdmitWait) a
	// JobView; both name the job.
	var ack struct {
		Job string `json:"job"`
		ID  string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ack); err != nil {
			return "", resp.StatusCode, err
		}
		id = ack.Job
		if id == "" {
			id = ack.ID
		}
		if id == "" {
			return "", resp.StatusCode, fmt.Errorf("response names no job")
		}
	}
	return id, resp.StatusCode, nil
}

// getJob reads one job's status and checks the view names it.
func getJob(c *http.Client, base, id, tenant string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Fela-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v gate.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && v.ID != id {
		return resp.StatusCode, fmt.Errorf("status for %s names %s", id, v.ID)
	}
	return resp.StatusCode, nil
}

// statusHandlerUs times the status route in the handler alone.
func statusHandlerUs(gw *gate.Gateway, admitted []*gateJob) float64 {
	if len(admitted) == 0 {
		return 0
	}
	var ts []float64
	for i := 0; i < 2000; i++ {
		j := admitted[i%len(admitted)]
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id, nil)
		req.Header.Set("X-Fela-Tenant", j.arr.tenant)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		gw.ServeHTTP(rec, req)
		ts = append(ts, float64(time.Since(t0))/1e3)
	}
	return median(ts)
}

// directLayers times a job replica's layers by calling Network.Loss on
// token batches directly (pool workers build their replicas inside the
// program, so their layers cannot be wrapped in place).
func directLayers(net *minidnn.Network, r *report) {
	log := tapLayers(net)
	ds := minidnn.SyntheticBlobs(7, 512, 16, 4)
	for i := 0; i < 2000; i++ {
		lo := (i * 8) % 512
		x, labels := ds.Batch(lo, lo+8)
		net.ZeroGrads()
		net.Loss(x, labels)
	}
	tokenMetrics(r, []*layerLog{log})
}
