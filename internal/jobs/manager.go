package jobs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fela/internal/durable"
	"fela/internal/elastic"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/transport"
)

// Config configures a Manager.
type Config struct {
	// Policy decides worker allocation (nil = FairShare).
	Policy AllocPolicy
	// Admission, when set, gates every submission before it enters the
	// queue (nil = admit everything). Rejected submissions settle
	// immediately with an error wrapping ErrRejected.
	Admission AdmissionPolicy
	// WorkerTimeout is each job coordinator's fault-tolerance deadline
	// (default 10s). Multi-tenant sessions always run fault-tolerant:
	// a worker dying mid-migration must not sink the donor job.
	WorkerTimeout time.Duration
	// Tick is the periodic rebalance interval (default 1s). Clean ticks
	// — no allocation-relevant state change since the last pass — skip
	// the policy entirely (the dirty-set fast path).
	Tick time.Duration
	// Metrics, when set, receives fela_jobs_* manager telemetry and is
	// shared with every job coordinator it starts.
	Metrics *obs.Registry
	// Spans, when set, records a span per rebalance pass and is shared
	// with job coordinators so token round-trips stay traceable.
	Spans *obs.Tracer
	// OnJobDone, when set, is called from the manager goroutine after
	// each job finishes (keep it quick; it blocks scheduling).
	OnJobDone func(JobResult)
	// Flight, when set, receives the manager's protocol events
	// (submit/admit/reject, lease grant/release, cancel, job
	// settlement). Nil records into the process-global flight recorder.
	Flight *obs.FlightRecorder
	// SLOObjective is the attainment objective the burn-rate gauges
	// measure against (fraction of jobs that must finish OK within
	// their SLO). Default 0.99.
	SLOObjective float64
	// Ledger, when set, receives a write-ahead entry for every manager
	// decision before the decision is acknowledged (see durability.go).
	Ledger *durable.Ledger
	// Store, when set, persists each job's iteration-boundary
	// checkpoints; its coordinators commit store-first, then the ledger
	// barrier. Restored jobs resume from their latest checkpoint.
	Store durable.Store
	// CheckpointEvery is the checkpoint interval in iterations
	// (0 = the rt default, durable.DefaultEvery). Meaningful only with
	// Store.
	CheckpointEvery int
	// Restore, when set, is the reduced ledger of a previous
	// incarnation (durable.Reduce over the replayed entries): open jobs
	// are re-queued — started ones resume from their checkpoints —
	// counters carry over, and job ids continue past everything ever
	// assigned.
	Restore *durable.State
}

// SubmitOptions carries per-submission extras.
type SubmitOptions struct {
	// SLO is the submitter's target completion latency (queue wait plus
	// runtime) that admission policies and the cluster benchmark reason
	// over; 0 means no SLO.
	SLO time.Duration
}

// JobResult is the terminal outcome of one job.
type JobResult struct {
	// ID is the manager-assigned job id (1-based).
	ID int
	// Spec is the normalized spec the job ran under.
	Spec transport.JobSpec
	// SLO echoes the submission's target completion latency (0 = none).
	SLO time.Duration
	// Result is the coordinator's session result, nil when Err is set.
	Result *rt.Result
	// Err is the terminal error, nil on success. errors.Is against
	// ErrRejected / ErrCanceled distinguishes admission rejections and
	// cancellations from training failures.
	Err error
	// QueueWait is submission-to-start latency.
	QueueWait time.Duration
	// Runtime is start-to-completion latency.
	Runtime time.Duration
	// WorkerIters sums live workers over the job's barriers — the
	// worker-iterations the job consumed, the fairness currency the
	// bench's Jain index is computed over.
	WorkerIters int
}

// Manager events. All mutable state is owned by the loop goroutine;
// everything else communicates through these.
type (
	// evConn is a classified pool connection: the first message a new
	// connection sent (a worker's join or a client's submission).
	evConn struct {
		conn transport.Conn
		msg  *transport.Message
		err  error
	}
	// evSubmit is an in-process submission (already normalized, id
	// already assigned).
	evSubmit struct {
		id   int
		spec transport.JobSpec
		slo  time.Duration
		done chan JobResult
	}
	// evCancel asks for a job's termination.
	evCancel struct {
		jobID int
	}
	// evBarrier streams one job barrier's stats from its jobPolicy.
	evBarrier struct {
		jobID        int
		iter         int
		live         int
		pendingJoins int
		pending      int // pending releases (requested + draining)
		iterTime     time.Duration
		tokens       int
	}
	// evJobDone reports a coordinator's exit.
	evJobDone struct {
		jobID int
		res   *rt.Result
		err   error
	}
	// evCkpt reports one durably committed checkpoint (store saved,
	// ledger barrier appended) from a job coordinator's hook.
	evCkpt struct {
		jobID int
		iter  int
	}
)

type jobState string

const (
	stateQueued  jobState = "queued"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
)

// job is the manager's ledger entry for one job (loop-owned). Worker
// accounting lives in the manager's indexed ledger, not here.
type job struct {
	id        int
	spec      transport.JobSpec
	slo       time.Duration
	state     jobState
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Exactly one of reply (wire submitter awaiting KindJobDone) and
	// done (in-process submitter) is set.
	reply transport.Conn
	done  chan JobResult

	pol *jobPolicy
	co  *rt.Coordinator

	iter        int
	rate        float64
	workerIters int
	tokensDone  int
	// polRate is the rate the policy last evaluated; barriers mark the
	// job dirty only when the EWMA has drifted materially past it, so
	// steady-state training does not force a policy pass per barrier.
	polRate  float64
	canceled bool

	// ckptIter/ckptAt track the last durably committed checkpoint
	// (-1/zero before the first, or with durability off); resume seeds
	// the coordinator when the job was restored from one.
	ckptIter int
	ckptAt   time.Time
	resume   *rt.Resume

	// conns is every connection ever handed to this job's coordinator.
	// All are closed when the job finishes: the coordinator does not
	// close connections itself, and a pool worker whose send direction
	// backed up mid-session (its tokens stolen by faster peers) can be
	// blocked in Send where only a Close will free it to rejoin.
	conns []transport.Conn

	res *rt.Result
	err error
}

// Manager runs the multi-tenant pool: it owns idle worker connections,
// starts a coordinator per job, and continuously re-targets the
// allocation through its AllocPolicy, migrating workers between jobs
// with reassign-drain-rejoin cycles. All state lives on one event-loop
// goroutine, coordinator-style.
//
// The scheduling data structures are sized for thousands of jobs: an
// indexed lease ledger with a maintained allocation sum, a cached
// arrival-ordered JobInfo slice refreshed in place, and a dirty-job
// set so a pass only runs when an allocation-relevant input actually
// changed. Bursts of events coalesce into one pass instead of one pass
// per event.
type Manager struct {
	cfg    Config
	events chan any
	quit   chan struct{}
	done   chan struct{}
	stop   sync.Once
	nextID atomic.Int64

	// Loop-owned state.
	start    time.Time
	jobs     map[int]*job
	order    []*job // queued + running, arrival order
	doneTail []*job // most recent completions, bounded
	idle     []transport.Conn
	// away counts workers handed a job that have not re-registered with
	// the pool since; the drain waits for them so they hear a shutdown.
	away     int
	closing  bool
	finished int
	rejected int
	canceled int
	nRunning int
	nQueued  int

	led *ledger
	// infos is the cached policy view, parallel to order (Seq = index);
	// idx maps job id to its position in both.
	infos []JobInfo
	idx   map[int]int
	// dirtyJobs and poolDirty gate the rebalance pass; trigger labels
	// the pass for telemetry with the event class that dirtied it.
	dirtyJobs map[int]struct{}
	poolDirty bool
	trigger   string
	passBuf   []*job

	// ratePerWorker is the cluster-wide EWMA training rate in
	// tokens/sec per worker; backlog estimates unfinished accepted
	// tokens. Both feed admission decisions.
	ratePerWorker float64
	backlog       int

	changed     bool
	lastPublish time.Time

	tele   mgrTelemetry
	status atomic.Pointer[PoolStatus]
	flight *obs.FlightRecorder
	// sloWin feeds the multi-window burn-rate gauges: every settled job
	// lands as good (finished OK within its SLO) or bad.
	sloWin *obs.Window
}

// NewManager starts a manager and its event loop.
func NewManager(cfg Config) *Manager {
	if cfg.Policy == nil {
		cfg.Policy = FairShare{}
	}
	if cfg.WorkerTimeout <= 0 {
		cfg.WorkerTimeout = 10 * time.Second
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.SLOObjective <= 0 || cfg.SLOObjective >= 1 {
		cfg.SLOObjective = defaultSLOObjective
	}
	m := &Manager{
		cfg:       cfg,
		events:    make(chan any, 1024),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		start:     time.Now(),
		jobs:      map[int]*job{},
		led:       newLedger(),
		idx:       map[int]int{},
		dirtyJobs: map[int]struct{}{},
		tele:      newMgrTelemetry(cfg.Metrics),
		flight:    obs.FlightOr(cfg.Flight),
		sloWin:    obs.NewWindow(),
	}
	if cfg.Restore != nil {
		m.restore(cfg.Restore)
	}
	m.publish()
	go m.loop()
	return m
}

// Admit hands the manager a fresh connection — a worker joining the
// pool or a client submitting a job; the first message tells them
// apart. Safe from any goroutine.
func (m *Manager) Admit(c transport.Conn) {
	go func() {
		msg, err := c.Recv()
		m.push(evConn{conn: c, msg: msg, err: err})
	}()
}

// Submit enqueues a job from within the process and returns a channel
// that delivers its terminal result.
func (m *Manager) Submit(spec transport.JobSpec) (<-chan JobResult, error) {
	_, ch, err := m.SubmitJob(spec, SubmitOptions{})
	return ch, err
}

// SubmitJob enqueues a job with options and returns its id — usable
// with Cancel before the result arrives — plus the result channel.
func (m *Manager) SubmitJob(spec transport.JobSpec, opts SubmitOptions) (int, <-chan JobResult, error) {
	spec, err := NormalizeSpec(spec)
	if err != nil {
		return 0, nil, err
	}
	select {
	case <-m.done:
		return 0, nil, fmt.Errorf("jobs: manager stopped")
	default:
	}
	id := int(m.nextID.Add(1))
	ch := make(chan JobResult, 1)
	select {
	case m.events <- evSubmit{id: id, spec: spec, slo: opts.SLO, done: ch}:
		return id, ch, nil
	case <-m.done:
		return 0, nil, fmt.Errorf("jobs: manager stopped")
	}
}

// Cancel asks for a job's termination: a queued job settles
// immediately with ErrCanceled, a running job is torn down (its
// workers return to the pool and re-register) and settles with
// ErrCanceled when its coordinator exits. Unknown or finished ids are
// ignored. Safe from any goroutine.
func (m *Manager) Cancel(id int) { m.push(evCancel{jobID: id}) }

// Stop begins a graceful shutdown: no new submissions are accepted,
// queued and running jobs finish, and every idle worker — including
// each worker re-registering after its last session — is sent a
// shutdown. Done closes once no worker is still away in a job, or
// rejoinGrace after the last job ended, so a worker never redials a
// listener its owner has already closed.
func (m *Manager) Stop() { m.stop.Do(func() { close(m.quit) }) }

// Done closes once the manager has fully drained after Stop.
func (m *Manager) Done() <-chan struct{} { return m.done }

// Status returns the latest pool snapshot.
func (m *Manager) Status() *PoolStatus { return m.status.Load() }

// StatusAny adapts Status to the obs.Handler statusFn signature without
// handing out a typed nil.
func (m *Manager) StatusAny() any {
	if st := m.Status(); st != nil {
		return st
	}
	return nil
}

// push delivers an event to the loop, or cleans up after a loop that
// already exited (a worker re-registering during teardown gets a
// shutdown instead of a lease).
func (m *Manager) push(ev any) {
	select {
	case m.events <- ev:
	case <-m.done:
		discard(ev)
	}
}

// discard settles an event that arrived after the manager drained: a
// worker gets a shutdown, a submitter gets a terminal error.
func discard(ev any) {
	switch e := ev.(type) {
	case evConn:
		if e.conn != nil {
			_ = e.conn.Send(&transport.Message{Kind: transport.KindShutdown})
			e.conn.Close()
		}
	case evSubmit:
		e.done <- JobResult{ID: e.id, Spec: e.spec, Err: fmt.Errorf("jobs: manager stopped")}
	}
}

// rejoinGrace bounds how long a drained pool waits for workers still
// away in a job to re-register: one that has not come back by then is
// presumed dead.
const rejoinGrace = 2 * time.Second

func (m *Manager) loop() {
	tick := time.NewTicker(m.cfg.Tick)
	defer tick.Stop()
	quit := m.quit
	var rejoinDeadline <-chan time.Time
	for {
		select {
		case ev := <-m.events:
			m.handle(ev)
			// Coalesce: drain whatever else is already queued before
			// acting, so a 1000-job arrival burst costs a handful of
			// policy passes instead of one per event.
			for drained := 0; drained < 1024; drained++ {
				var next any
				select {
				case next = <-m.events:
				default:
				}
				if next == nil {
					break
				}
				m.handle(next)
			}
			m.maybeRebalance()
		case <-tick.C:
			m.maybeRebalance()
			m.changed = true
			m.lastPublish = time.Time{} // ticks always refresh /statusz
		case <-quit:
			quit = nil
			m.closing = true
			m.changed = true
			m.walOr(durable.Entry{Op: durable.OpDrain, WID: -1})
		case <-rejoinDeadline:
			m.away = 0
		}
		if m.closing && len(m.order) == 0 {
			for _, c := range m.idle {
				_ = c.Send(&transport.Message{Kind: transport.KindShutdown})
				c.Close()
			}
			m.idle = nil
			if m.away > 0 {
				if rejoinDeadline == nil {
					rejoinDeadline = time.After(rejoinGrace)
				}
				m.publishIfDue()
				continue
			}
			m.publish()
			// A push can race the shutdown and land in the events
			// buffer just as done closes; without a consumer its conn
			// would hang forever. Leave a discarding reaper behind (one
			// cheap goroutine per manager lifetime).
			go func() {
				for ev := range m.events {
					discard(ev)
				}
			}()
			close(m.done)
			return
		}
		m.publishIfDue()
	}
}

func (m *Manager) handle(ev any) {
	switch e := ev.(type) {
	case evConn:
		m.classify(e)
	case evSubmit:
		m.enqueue(e.id, e.spec, e.slo, nil, e.done)
	case evCancel:
		m.cancel(e.jobID)
	case evBarrier:
		m.atBarrier(e)
	case evJobDone:
		m.finishJob(e)
	case evCkpt:
		if j := m.jobs[e.jobID]; j != nil {
			j.ckptIter = e.iter
			j.ckptAt = time.Now()
		}
	}
	m.changed = true
}

// recordFlight lands one manager protocol event in the flight ring.
func (m *Manager) recordFlight(event string, jobID int, detail string) {
	ev := obs.Evt("jobs", event)
	ev.Job = jobID
	ev.Detail = detail
	m.flight.Record(ev)
}

// markJob flags one job's allocation inputs as changed; markPool flags
// a pool-wide change (idle count, membership, structure). Either makes
// the next maybeRebalance run a pass.
func (m *Manager) markJob(id int, trigger string) {
	m.dirtyJobs[id] = struct{}{}
	m.trigger = trigger
}

func (m *Manager) markPool(trigger string) {
	m.poolDirty = true
	m.trigger = trigger
}

// classify routes a new connection by its first message.
func (m *Manager) classify(e evConn) {
	if e.err != nil {
		if e.conn != nil {
			e.conn.Close()
		}
		return
	}
	switch e.msg.Kind {
	case transport.KindJoin:
		// A worker entering the pool; JobID > 0 marks a return from
		// that job (a completed migration or a post-job rejoin).
		if e.msg.JobID > 0 {
			m.tele.returns.Inc()
			if m.away > 0 {
				m.away--
			}
		}
		m.walOr(durable.Entry{Op: durable.OpJoin, JobID: e.msg.JobID, WID: e.msg.WID})
		m.idle = append(m.idle, e.conn)
		m.markPool("worker")
	case transport.KindSubmitJob:
		if m.closing {
			m.reject(e.conn, fmt.Errorf("jobs: pool is shutting down"))
			return
		}
		spec, err := NormalizeSpec(e.msg.Job)
		if err != nil {
			m.reject(e.conn, err)
			return
		}
		m.enqueue(int(m.nextID.Add(1)), spec, 0, e.conn, nil)
	default:
		e.conn.Close()
	}
}

func (m *Manager) reject(c transport.Conn, err error) {
	m.tele.rejected.Inc()
	_ = c.Send(&transport.Message{Kind: transport.KindJobDone, Err: err.Error()})
	c.Close()
}

// arrivalInfo snapshots the pool for an admission decision.
func (m *Manager) arrivalInfo(spec transport.JobSpec, slo time.Duration) ArrivalInfo {
	return ArrivalInfo{
		Spec:          spec,
		SLO:           slo,
		PoolWorkers:   len(m.idle) + m.led.sum(),
		Idle:          len(m.idle),
		Running:       m.nRunning,
		Queued:        m.nQueued,
		BacklogTokens: m.backlog,
		RatePerWorker: m.ratePerWorker,
	}
}

func (m *Manager) enqueue(id int, spec transport.JobSpec, slo time.Duration, reply transport.Conn, done chan JobResult) {
	if m.cfg.Admission != nil {
		if ok, reason := m.cfg.Admission.Admit(m.arrivalInfo(spec, slo)); !ok {
			m.rejected++
			m.tele.admission(false)
			// A rejection is an SLO miss the submitter experienced: it
			// burns the pool's budget just like a blown deadline.
			m.sloWin.Observe(false, time.Now())
			m.recordFlight("reject", id, reason)
			m.walOr(durable.Entry{Op: durable.OpReject, JobID: id, WID: -1, Detail: reason})
			err := fmt.Errorf("%w: %s", ErrRejected, reason)
			if reply != nil {
				m.reject(reply, err)
			}
			if done != nil {
				done <- JobResult{ID: id, Spec: spec, SLO: slo, Err: err}
			}
			return
		}
		m.tele.admission(true)
	}
	// Write-ahead: the submission must be on disk before the job can be
	// scheduled or acknowledged. A ledger that cannot take the entry
	// cannot promise durability, so the submission is refused.
	if err := m.appendWAL(durable.Entry{Op: durable.OpSubmit, JobID: id, WID: -1, SLO: slo, Spec: spec}); err != nil {
		m.rejected++
		m.recordFlight("reject", id, "ledger: "+err.Error())
		err = fmt.Errorf("%w: ledger append: %v", ErrRejected, err)
		if reply != nil {
			m.reject(reply, err)
		}
		if done != nil {
			done <- JobResult{ID: id, Spec: spec, SLO: slo, Err: err}
		}
		return
	}
	j := &job{
		id:        id,
		spec:      spec,
		slo:       slo,
		state:     stateQueued,
		submitted: time.Now(),
		reply:     reply,
		done:      done,
		iter:      -1,
		ckptIter:  -1,
	}
	m.jobs[j.id] = j
	m.led.add(j.id)
	m.idx[j.id] = len(m.order)
	m.order = append(m.order, j)
	m.infos = append(m.infos, JobInfo{
		ID: j.id, Seq: len(m.order) - 1, Priority: spec.Priority,
		Min: spec.MinWorkers, Max: spec.MaxWorkers,
	})
	m.nQueued++
	m.backlog += specTokens(spec)
	m.tele.submitted.Inc()
	m.recordFlight("submit", j.id, fmt.Sprintf("model=%s min=%d max=%d", spec.Model, spec.MinWorkers, spec.MaxWorkers))
	m.markJob(j.id, "arrival")
}

// cancel terminates a job on the submitter's request.
func (m *Manager) cancel(id int) {
	j := m.jobs[id]
	if j == nil || j.state == stateDone || j.canceled {
		return
	}
	m.canceled++
	m.tele.canceled.Inc()
	m.recordFlight("cancel", id, string(j.state))
	m.walOr(durable.Entry{Op: durable.OpCancel, JobID: id, WID: -1})
	switch j.state {
	case stateQueued:
		j.canceled = true
		m.finishJob(evJobDone{jobID: id, err: ErrCanceled})
	case stateRunning:
		// Closing every conn the coordinator holds makes it lose all
		// workers and exit; the workers see peer-gone and re-register
		// with the pool. finishJob then settles with ErrCanceled.
		j.canceled = true
		for _, c := range j.conns {
			c.Close()
		}
	}
}

// atBarrier folds one barrier report into the job's ledger entry: held
// becomes the coordinator's authoritative live+joining count, in-flight
// leases are absorbed, pending is replaced by the job policy's count,
// and the rate EWMAs advance. The job is marked dirty only when its
// effective allocation changed or its rate drifted materially — a
// steady-state barrier stream leaves the pass gate closed.
func (m *Manager) atBarrier(e evBarrier) {
	j := m.jobs[e.jobID]
	if j == nil || j.state != stateRunning {
		return
	}
	effChanged := m.led.fold(j.id, e.live+e.pendingJoins, e.pending)
	j.iter = e.iter
	j.workerIters += e.live
	j.tokensDone += e.tokens
	m.backlog -= e.tokens
	if m.backlog < 0 {
		m.backlog = 0
	}
	if e.iterTime > 0 && e.tokens > 0 {
		r := float64(e.tokens) / e.iterTime.Seconds()
		if j.rate == 0 {
			j.rate = r
		} else {
			j.rate = 0.5*j.rate + 0.5*r
		}
		if e.live > 0 {
			perW := r / float64(e.live)
			if m.ratePerWorker == 0 {
				m.ratePerWorker = perW
			} else {
				m.ratePerWorker = 0.7*m.ratePerWorker + 0.3*perW
			}
		}
	}
	if i, ok := m.idx[j.id]; ok {
		m.infos[i].Workers = m.led.eff(j.id)
		m.infos[i].Rate = j.rate
	}
	drift := j.rate-j.polRate >= 0.1*j.polRate || j.polRate-j.rate >= 0.1*j.polRate
	if effChanged || drift {
		m.markJob(j.id, "barrier")
	}
}

// refreshInfo re-derives one job's cached policy view after a
// loop-side mutation (lease, release request, start).
func (m *Manager) refreshInfo(j *job) {
	i, ok := m.idx[j.id]
	if !ok {
		return
	}
	m.infos[i].Started = j.state == stateRunning
	m.infos[i].Workers = m.led.eff(j.id)
	m.infos[i].Rate = j.rate
}

// maybeRebalance runs allocation passes until the dirty gate is clear
// — the fast path for clean ticks is a few map/flag reads and no
// policy call. The pass cap bounds reentrant dirtying (a start failure
// finishing a job mid-pass).
func (m *Manager) maybeRebalance() {
	for passes := 0; passes < 8; passes++ {
		if len(m.order) == 0 {
			m.resetDirty()
			return
		}
		if len(m.dirtyJobs) == 0 && !m.poolDirty {
			return
		}
		m.pass()
	}
}

func (m *Manager) resetDirty() {
	clear(m.dirtyJobs)
	m.poolDirty = false
	m.trigger = ""
}

// pass recomputes targets over the cached infos and acts on the
// difference: releases from over-target jobs, starts for queued jobs,
// leases to under-target jobs. Every pass is traced and counted.
func (m *Manager) pass() {
	trigger := m.trigger
	if trigger == "" {
		trigger = "tick"
	}
	sp := m.cfg.Spans.StartRoot("rebalance", 0)
	defer sp.End()
	m.tele.rebalanced(trigger)
	m.tele.dirty.Set(float64(len(m.dirtyJobs)))
	m.resetDirty()

	total := len(m.idle) + m.led.sum()
	targets := m.cfg.Policy.Allocate(total, m.infos)
	for _, j := range m.order {
		if j.state == stateRunning {
			j.polRate = j.rate
		}
	}

	// Act over a snapshot: a start failure can finish a job mid-pass,
	// splicing order under our feet.
	snap := append(m.passBuf[:0], m.order...)
	m.passBuf = snap

	// Releases first: they put workers back in flight toward the pool.
	for _, j := range snap {
		if j.state != stateRunning {
			continue
		}
		want := targets[j.id]
		if want < j.spec.MinWorkers {
			want = j.spec.MinWorkers
		}
		if eff := m.led.eff(j.id); want < eff {
			j.pol.requestRelease(eff - want)
			m.led.requestRelease(j.id, eff-want)
			m.refreshInfo(j)
			m.tele.releases.Add(int64(eff - want))
			m.recordFlight("lease.release", j.id, fmt.Sprintf("workers=%d", eff-want))
			m.walOr(durable.Entry{Op: durable.OpLeaseRelease, JobID: j.id, WID: -1, N: eff - want})
		}
	}
	// Starts: queued jobs in arrival order, only at or above their
	// floor — a partial start below MinWorkers would violate the spec.
	for _, j := range snap {
		if j.state != stateQueued || len(m.idle) == 0 {
			continue
		}
		want := targets[j.id]
		if n := len(m.idle); want > n {
			want = n
		}
		if want < j.spec.MinWorkers || want == 0 {
			continue
		}
		m.startJob(j, want)
	}
	// Leases: top up running jobs through the elastic join path.
	for _, j := range snap {
		if j.state != stateRunning {
			continue
		}
		want := targets[j.id]
		for m.led.eff(j.id) < want && len(m.idle) > 0 {
			if !m.lease(j) {
				break
			}
		}
	}
}

// takeIdle pops the oldest idle connection.
func (m *Manager) takeIdle() transport.Conn {
	if len(m.idle) == 0 {
		return nil
	}
	c := m.idle[0]
	m.idle = m.idle[1:]
	return c
}

// assign sends a worker its job assignment. For initial leases the
// manager acks the join itself (wid is the slot); elastic leases pass
// wid < 0 and the ack comes from the coordinator at a barrier.
func (m *Manager) assign(c transport.Conn, j *job, wid int) error {
	if err := c.Send(&transport.Message{Kind: transport.KindSubmitJob, JobID: j.id, Job: j.spec}); err != nil {
		return err
	}
	if wid >= 0 {
		if err := c.Send(&transport.Message{Kind: transport.KindJoin, WID: wid, Iter: 0}); err != nil {
			return err
		}
	}
	m.away++
	return nil
}

// startJob leases up to n idle workers and boots the job's coordinator.
// Idle connections that turn out dead are dropped on the floor (the
// worker's side is gone); if every candidate was dead the job stays
// queued.
func (m *Manager) startJob(j *job, n int) {
	var conns []transport.Conn
	for len(conns) < n && len(m.idle) > 0 {
		c := m.takeIdle()
		if err := m.assign(c, j, len(conns)); err != nil {
			c.Close()
			continue
		}
		conns = append(conns, c)
	}
	if len(conns) == 0 {
		return
	}

	mk, _, err := BuildSession(j.spec)
	if err == nil {
		var ctrl *elastic.Controller
		ctrl, err = elastic.NewController(elastic.Config{
			MinWorkers: j.spec.MinWorkers,
			MaxWorkers: j.spec.MaxWorkers,
		})
		if err == nil {
			j.pol = newJobPolicy(j.id, j.spec.MinWorkers, ctrl, m)
			cfg := RTConfig(j.spec, len(conns))
			cfg.Elastic = j.pol
			cfg.WorkerTimeout = m.cfg.WorkerTimeout
			cfg.Metrics = m.cfg.Metrics
			cfg.Spans = m.cfg.Spans
			cfg.Flight = m.cfg.Flight
			m.durableRTHooks(j, &cfg)
			j.co, err = rt.NewCoordinator(mk(), cfg)
		}
	}
	if err != nil {
		// Spec was validated at submission; reaching this means a bad
		// preset/config interaction. Fail the job and recycle workers.
		for _, c := range conns {
			_ = c.Send(&transport.Message{Kind: transport.KindShutdown})
			c.Close()
		}
		m.finishJob(evJobDone{jobID: j.id, err: err})
		return
	}

	m.walOr(durable.Entry{Op: durable.OpJobStart, JobID: j.id, WID: -1, N: len(conns)})
	j.state = stateRunning
	j.started = time.Now()
	m.led.start(j.id, len(conns))
	m.nQueued--
	m.nRunning++
	m.refreshInfo(j)
	m.tele.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
	m.tele.leased("initial", len(conns))
	m.recordFlight("job.start", j.id, fmt.Sprintf("workers=%d", len(conns)))

	// Coordinator sends go through an async queue (deadlock avoidance,
	// see asyncConn); the job tracks the wrappers so finishJob's Close
	// also stops the forwarders.
	wrapped := make([]transport.Conn, len(conns))
	for i, c := range conns {
		ac := newAsyncConn(c)
		j.conns = append(j.conns, ac)
		wrapped[i] = newQueuedConn(ac, &transport.Message{Kind: transport.KindRegister, WID: i})
	}
	co := j.co
	id := j.id
	go func() {
		res, err := co.Run(wrapped)
		m.push(evJobDone{jobID: id, res: res, err: err})
	}()
}

// lease hands one idle worker to a running job through the elastic
// join path. Returns false when no live idle worker could be attached.
func (m *Manager) lease(j *job) bool {
	c := m.takeIdle()
	if c == nil {
		return false
	}
	if err := m.assign(c, j, -1); err != nil {
		c.Close()
		return false
	}
	ac := newAsyncConn(c)
	qc := newQueuedConn(ac, &transport.Message{Kind: transport.KindJoin})
	if err := j.co.Admit(qc); err != nil {
		ac.Close()
		return false
	}
	m.walOr(durable.Entry{Op: durable.OpLeaseGrant, JobID: j.id, WID: -1, N: 1})
	m.led.lease(j.id)
	j.conns = append(j.conns, ac)
	m.refreshInfo(j)
	m.tele.leased("join", 1)
	m.recordFlight("lease.grant", j.id, "kind=join")
	return true
}

// finishJob settles a terminal job: replies to its submitter, records
// telemetry, drops it from the schedule and rebalances the freed
// capacity.
func (m *Manager) finishJob(e evJobDone) {
	j := m.jobs[e.jobID]
	if j == nil || j.state == stateDone {
		return
	}
	wasRunning := j.state == stateRunning
	j.state = stateDone
	j.finished = time.Now()
	j.res, j.err = e.res, e.err
	if j.canceled {
		j.res, j.err = nil, ErrCanceled
	}
	if j.started.IsZero() {
		j.started = j.finished
	}
	if wasRunning {
		m.nRunning--
	} else {
		m.nQueued--
	}
	if work := specTokens(j.spec) - j.tokensDone; work > 0 {
		m.backlog -= work
		if m.backlog < 0 {
			m.backlog = 0
		}
	}
	delete(m.jobs, j.id)
	m.led.drop(j.id)
	if i, ok := m.idx[j.id]; ok {
		m.order = append(m.order[:i], m.order[i+1:]...)
		m.infos = append(m.infos[:i], m.infos[i+1:]...)
		delete(m.idx, j.id)
		for k := i; k < len(m.order); k++ {
			m.idx[m.order[k].id] = k
			m.infos[k].Seq = k
		}
	}
	m.doneTail = append(m.doneTail, j)
	if len(m.doneTail) > 16 {
		m.doneTail = m.doneTail[len(m.doneTail)-16:]
	}
	m.finished++
	m.tele.completed(j.err == nil)
	// The session is over (Run returned); closing every conn the job
	// ever held frees any worker the coordinator left behind — stranded
	// mid-send, or live on a session that died — to rejoin the pool.
	// Workers that departed cleanly re-dialed long ago, so closing their
	// old conns is a no-op.
	for _, c := range j.conns {
		c.Close()
	}
	j.conns = nil

	out := JobResult{
		ID: j.id, Spec: j.spec, SLO: j.slo, Result: j.res, Err: j.err,
		QueueWait:   j.started.Sub(j.submitted),
		Runtime:     j.finished.Sub(j.started),
		WorkerIters: j.workerIters,
	}
	outcome := "ok"
	switch {
	case j.canceled:
		outcome = "canceled"
	case j.err != nil:
		outcome = "error"
	}
	m.recordFlight("job.done", j.id, fmt.Sprintf("outcome=%s iters=%d", outcome, j.iter+1))
	// SLO attainment: a job is good when it finished OK within its
	// target (jobs without one only need to finish OK). Cancellations
	// are the submitter's choice and burn no budget — and their OpCancel
	// entry already settled them in the ledger, so only genuine
	// completions append an OpJobDone (write-ahead of the reply below).
	if !j.canceled {
		ok := j.err == nil && (j.slo == 0 || out.QueueWait+out.Runtime <= j.slo)
		m.walOr(durable.Entry{Op: durable.OpJobDone, JobID: j.id, WID: -1, OK: ok, Detail: "outcome=" + outcome})
		m.sloWin.Observe(ok, j.finished)
	}
	if j.reply != nil {
		msg := &transport.Message{Kind: transport.KindJobDone, JobID: j.id}
		if j.err != nil {
			msg.Err = j.err.Error()
		} else {
			if n := len(j.res.Losses); n > 0 {
				msg.Loss = j.res.Losses[n-1]
			}
			msg.Params = make([][]float32, len(j.res.Params))
			for i, t := range j.res.Params {
				msg.Params[i] = append([]float32(nil), t.Data...)
			}
		}
		_ = j.reply.Send(msg)
		j.reply.Close()
	}
	if j.done != nil {
		j.done <- out
	}
	if m.cfg.OnJobDone != nil {
		m.cfg.OnJobDone(out)
	}
	m.markPool("completion")
}

// publishIfDue refreshes /statusz when state changed, throttled so a
// barrage of barrier events does not turn the snapshot into the hot
// path at 1000-job scale.
func (m *Manager) publishIfDue() {
	if !m.changed {
		return
	}
	if time.Since(m.lastPublish) < 20*time.Millisecond && !m.lastPublish.IsZero() {
		return
	}
	m.publish()
}

// publish refreshes the /statusz snapshot.
func (m *Manager) publish() {
	m.changed = false
	m.lastPublish = time.Now()
	st := &PoolStatus{
		Role:          "jobmanager",
		Policy:        m.cfg.Policy.Name(),
		Idle:          len(m.idle),
		Rejected:      m.rejected,
		Canceled:      m.canceled,
		BacklogTokens: m.backlog,
		RatePerWorker: m.ratePerWorker,
		UptimeSeconds: time.Since(m.start).Seconds(),
	}
	if m.cfg.Admission != nil {
		st.Admission = m.cfg.Admission.Name()
	}
	held := 0
	for _, j := range m.order {
		eff := m.led.eff(j.id)
		held += eff
		switch j.state {
		case stateRunning:
			st.Running++
		case stateQueued:
			st.Queued++
		}
		st.Jobs = append(st.Jobs, m.jobStatus(j, eff))
	}
	for _, j := range m.doneTail {
		st.Jobs = append(st.Jobs, m.jobStatus(j, 0))
	}
	st.Completed = m.finished
	st.Workers = len(m.idle) + held
	now := m.lastPublish
	st.SLOObjective = m.cfg.SLOObjective
	st.SLOBurn5m = m.sloWin.Burn(5*time.Minute, m.cfg.SLOObjective, now)
	st.SLOBurn1h = m.sloWin.Burn(time.Hour, m.cfg.SLOObjective, now)
	m.tele.running.Set(float64(st.Running))
	m.tele.queued.Set(float64(st.Queued))
	m.tele.poolIdle.Set(float64(st.Idle))
	m.tele.poolTotal.Set(float64(st.Workers))
	m.tele.backlog.Set(float64(m.backlog))
	m.tele.reg.Gauge(MetricSLOBurn, "window", "5m").Set(st.SLOBurn5m)
	m.tele.reg.Gauge(MetricSLOBurn, "window", "1h").Set(st.SLOBurn1h)
	m.status.Store(st)
}

func (m *Manager) jobStatus(j *job, eff int) JobStatus {
	js := JobStatus{
		ID: j.id, Name: j.spec.Name, Model: j.spec.Model,
		State: string(j.state), Priority: j.spec.Priority,
		MinWorkers: j.spec.MinWorkers, MaxWorkers: j.spec.MaxWorkers,
		Workers: eff, Iter: j.iter, Iterations: j.spec.Iterations,
		TokenRate:  j.rate,
		SLOSeconds: j.slo.Seconds(),
	}
	switch j.state {
	case stateQueued:
		js.QueueWaitSeconds = time.Since(j.submitted).Seconds()
	case stateRunning:
		js.QueueWaitSeconds = j.started.Sub(j.submitted).Seconds()
		js.RuntimeSeconds = time.Since(j.started).Seconds()
	case stateDone:
		js.QueueWaitSeconds = j.started.Sub(j.submitted).Seconds()
		js.RuntimeSeconds = j.finished.Sub(j.started).Seconds()
	}
	js.CkptIter = j.ckptIter
	if j.ckptIter >= 0 && !j.ckptAt.IsZero() {
		js.CkptAgeSeconds = time.Since(j.ckptAt).Seconds()
	}
	if j.err != nil {
		js.Error = j.err.Error()
	}
	return js
}
