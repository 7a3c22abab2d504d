package rt

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// Coordinator is the real-time Token Server plus the BSP parameter
// synchronizer. It owns the master copy of the model, seeds one STB per
// worker each iteration, serves pull requests (own shard first, then
// stealing from the largest backlog), and applies the canonical-order
// gradient aggregation that makes the run bit-equal to Sequential.
//
// With Config.WorkerTimeout set, the coordinator is fault tolerant: a
// worker whose connection errors, or that sits on an assigned token past
// the deadline, is declared dead. Its unreported tokens return to the
// pool, parked pull requests are re-served, and the iteration completes
// on the survivors — the paper's reactive straggler mitigation (§III-A)
// extended from slowness to outright crashes. Because aggregation stays
// in canonical token order, the result remains bit-identical to
// Sequential no matter which workers die or when.
//
// With Config.Elastic set, membership is live: connections handed to
// Admit may join mid-session, workers may drain out gracefully, and the
// policy may evict workers — all applied at iteration barriers, so every
// iteration runs under one fixed membership. A graceful leave is a
// planned death: the drainer's outstanding tokens flow back through the
// same return path as a crashed worker's, which is why elasticity adds
// no new failure semantics.
type Coordinator struct {
	net *minidnn.Network
	cfg Config

	start   time.Time
	events  chan event
	workers []*workerState
	byConn  map[transport.Conn]*workerState
	res     *Result

	// initial marks the connections handed to Run (vs admitted later);
	// rejected marks connections shut for protocol violations, so their
	// pump's closing error is not double-counted.
	initial  map[transport.Conn]bool
	rejected map[transport.Conn]bool

	// admMu guards admitted, the connections handed to Admit by
	// listener goroutines; everything else is coordinator-goroutine
	// state.
	admMu    sync.Mutex
	admitted []transport.Conn

	// pendingJoins are admitted connections that asked to join, FIFO;
	// pendingLeaves are workers that announced a drain. Both wait for an
	// iteration barrier. pendingJoinReq remembers each pending joiner's
	// requested gradient codec until admission negotiates it.
	pendingJoins   []transport.Conn
	pendingJoinReq map[transport.Conn]transport.Compression
	pendingLeaves  []*workerState

	// Per-iteration state.
	it         int
	tokens     []*tokenState
	waiting    []*workerState // parked pull requests, FIFO
	iterTokens map[int]int    // tokens reported per worker this iteration

	// gradViews[seq] are the per-tensor views every report's gradients
	// are copied into, all carved from one session-long arena. Copying
	// at report time (instead of keeping m.Grads until the barrier) is
	// what lets pooled transport messages be released immediately, and
	// it hoists the per-report slice allocations out of the hot loop.
	gradViews [][][]float32

	// Telemetry (internal/obs). tele instruments are nil-safe no-ops
	// when Config.Metrics is nil; status is the atomically published
	// /statusz snapshot; rates holds the per-worker EWMA token rates;
	// iterSpan is the current iteration's root span, whose context the
	// iter-start broadcast carries to workers.
	tele     coTelemetry
	status   atomic.Pointer[Status]
	rates    map[int]float64
	iterSpan *obs.Span
	flight   *obs.FlightRecorder
}

// NewCoordinator wraps the master network.
func NewCoordinator(net *minidnn.Network, cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		net:            net,
		cfg:            cfg,
		events:         make(chan event, 16*cfg.Workers+64),
		byConn:         map[transport.Conn]*workerState{},
		initial:        map[transport.Conn]bool{},
		rejected:       map[transport.Conn]bool{},
		tele:           newCoTelemetry(cfg.Metrics),
		rates:          map[int]float64{},
		pendingJoinReq: map[transport.Conn]transport.Compression{},
		flight:         obs.FlightOr(cfg.Flight),
		start:          time.Now(),
		res:            &Result{TokensByWorker: make([]int, cfg.Workers)},
		it:             -1,
	}
	// Publish an initial snapshot so /statusz answers from the moment
	// the coordinator exists, not only after registration completes.
	co.publishStatus()
	return co, nil
}

type event struct {
	msg  *transport.Message
	err  error
	conn transport.Conn
}

// tokenState tracks one token within an iteration.
type tokenState struct {
	info     transport.TokenInfo
	assigned bool
	done     bool
	grads    [][]float32
	loss     float64
	// span is the coordinator-side round-trip span of the current
	// assignment (nil when tracing is off); its context rode to the
	// worker inside the assign message.
	span *obs.Span
}

// workerState tracks one worker across the session.
type workerState struct {
	wid   int
	conn  transport.Conn
	alive bool
	// draining marks a worker that announced a graceful leave: it no
	// longer receives tokens and departs at the next barrier.
	draining bool
	// departed marks a planned removal (drain or eviction) as opposed
	// to a death; departed workers never appear in DeadWorkers.
	departed bool
	// outstanding maps assigned-but-unreported token seqs to their
	// assignment time, the basis for hang detection.
	outstanding map[int]time.Time
	// codec is the gradient codec negotiated at registration: the
	// worker's request when it matches Config.Compress, exact otherwise.
	// Reports must arrive under this codec or exact (transports without
	// codec support degrade to exact, which is always legal).
	codec transport.Compression
}

// errWorkerHung marks a deadline expiry on an assigned token.
var errWorkerHung = errors.New("rt: worker deadline expired with token outstanding")

// errProtocol marks a well-formed message that violates the protocol
// state machine (e.g. a token request before registration).
var errProtocol = errors.New("rt: protocol violation")

// recordFlight stamps a coordinator protocol event into the flight
// recorder with the current iteration filled in.
func (co *Coordinator) recordFlight(event string, wid int, trace string, detail string) {
	ev := obs.Evt("rt", event)
	ev.Worker = wid
	ev.Iter = co.it
	ev.Trace = trace
	ev.Detail = detail
	co.flight.Record(ev)
}

// negotiate resolves a worker's requested gradient codec against the
// session's permit (Config.Compress): the request wins only when it
// matches the permit exactly; any mismatch degrades to lossless. wid is
// only for the flight record (-1 for not-yet-admitted joiners).
func (co *Coordinator) negotiate(wid int, req transport.Compression) transport.Compression {
	neg := transport.CompressExact
	if req.Valid() && req == co.cfg.Compress {
		neg = req
	}
	if req != transport.CompressExact || co.cfg.Compress != transport.CompressExact {
		co.recordFlight("compress.negotiate", wid, "",
			fmt.Sprintf("req=%v permit=%v negotiated=%v", req, co.cfg.Compress, neg))
	}
	return neg
}

// faultTolerant reports whether fault handling is enabled.
func (co *Coordinator) faultTolerant() bool { return co.cfg.WorkerTimeout > 0 }

// elastic reports whether live membership is enabled.
func (co *Coordinator) elastic() bool { return co.cfg.Elastic != nil }

// pump forwards a connection's messages into the event loop until the
// connection errors.
func (co *Coordinator) pump(c transport.Conn) {
	go func() {
		for {
			m, err := c.Recv()
			co.events <- event{m, err, c}
			if err != nil {
				return
			}
		}
	}()
}

// Admit hands a freshly accepted connection to an elastic session. The
// peer must introduce itself with a join message; it becomes a worker at
// an iteration barrier, subject to the membership policy. Admit is safe
// to call from listener goroutines concurrently with Run, before or
// during the session.
func (co *Coordinator) Admit(c transport.Conn) error {
	if !co.elastic() {
		return fmt.Errorf("rt: Admit requires an elastic session (Config.Elastic)")
	}
	c = transport.Instrument(c, co.cfg.Metrics)
	co.admMu.Lock()
	co.admitted = append(co.admitted, c)
	co.admMu.Unlock()
	co.pump(c)
	return nil
}

// Run drives a full session over the given worker connections. It
// returns after broadcasting shutdown. Connections are not closed unless
// their worker is declared dead or departs.
func (co *Coordinator) Run(conns []transport.Conn) (*Result, error) {
	if len(conns) != co.cfg.Workers {
		return nil, fmt.Errorf("rt: %d connections for %d workers", len(conns), co.cfg.Workers)
	}
	co.start = time.Now()
	co.res = &Result{TokensByWorker: make([]int, co.cfg.Workers)}
	co.workers = make([]*workerState, co.cfg.Workers)
	for wid := range co.workers {
		co.workers[wid] = &workerState{wid: wid, outstanding: map[int]time.Time{}}
	}
	// Wrap every connection with telemetry (a no-op pass-through when
	// Config.Metrics is nil); the wrapped handle is the identity used in
	// byConn/initial from here on.
	conns = append([]transport.Conn(nil), conns...)
	for i, c := range conns {
		conns[i] = transport.Instrument(c, co.cfg.Metrics)
	}
	for _, c := range conns {
		co.initial[c] = true
		co.pump(c)
	}

	if err := co.register(conns); err != nil {
		return nil, err
	}
	co.it = -1 // no iteration completed yet; the loop below resets it
	co.publishStatus()
	co.tele.live.Set(float64(co.trainableCount()))

	nTok := co.cfg.tokensPerIter()
	frac := float32(co.cfg.TokenBatch) / float32(co.cfg.TotalBatch)
	vel := zerosLike(co.net.Params())
	acc := zerosLike(co.net.Params())
	co.initGradArena(nTok)

	// Restore a checkpointed session: install the barrier state, replay
	// the loss history, and start the loop at the next iteration. The
	// canonical-order aggregation then recomputes the uncheckpointed
	// tail exactly as an uninterrupted run would have.
	startIter := 0
	if r := co.cfg.Resume; r != nil {
		if err := InstallFlat(co.net.Params(), r.Params); err != nil {
			return nil, fmt.Errorf("rt: resume params: %w", err)
		}
		if err := InstallFlat(vel, r.Vel); err != nil {
			return nil, fmt.Errorf("rt: resume velocity: %w", err)
		}
		co.res.Losses = append(co.res.Losses, r.Losses...)
		startIter = r.Iter + 1
		co.recordFlight("restore.resume", -1, "",
			fmt.Sprintf("iter=%d of %d", r.Iter, co.cfg.Iterations))
	}

	for co.it = startIter; co.it < co.cfg.Iterations; co.it++ {
		iterStart := time.Now()
		if err := co.runIteration(nTok); err != nil {
			return nil, err
		}
		// Canonical-order aggregation: identical arithmetic to
		// Sequential, so results match bitwise. Gradient sizes were
		// validated when each report arrived (see the KindReport case),
		// so every view here matches its accumulator.
		barrierStart := time.Now()
		zeroAll(acc)
		var loss float64
		for _, tok := range co.tokens {
			loss += tok.loss / float64(nTok)
			for i := range acc {
				for j, g := range tok.grads[i] {
					acc[i].Data[j] += frac * g
				}
			}
		}
		applyUpdate(co.net, vel, acc, co.cfg)
		co.res.Losses = append(co.res.Losses, loss)
		if co.cfg.checkpointDue(co.it) {
			// The hook gets copies (flatten allocates): the checkpoint
			// must not alias live state the next iteration mutates.
			if err := co.cfg.Checkpoint(co.it, flatten(co.net.Params()), flatten(vel), slices.Clone(co.res.Losses)); err != nil {
				return nil, fmt.Errorf("rt: checkpoint at iteration %d: %w", co.it, err)
			}
		}
		iterTime := time.Since(iterStart)
		co.observeIteration(iterTime)
		co.applyMembership(iterTime)
		co.tele.barrier.Observe(time.Since(barrierStart).Seconds())
		co.recordFlight("barrier", -1, co.iterSpan.Context().TraceHex(),
			fmt.Sprintf("live=%d iter_ms=%d", co.trainableCount(), iterTime.Milliseconds()))
		co.iterSpan.End()
		co.iterSpan = nil
		co.publishStatus()
	}

	for _, ws := range co.workers {
		if !ws.alive {
			continue
		}
		if err := ws.conn.Send(&transport.Message{Kind: transport.KindShutdown}); err != nil {
			if !co.faultTolerant() {
				return nil, fmt.Errorf("rt: shutdown to worker %d: %w", ws.wid, err)
			}
			co.markDead(ws, "shutdown", err)
		}
	}
	co.closeLeftoverAdmitted()
	for _, ws := range co.workers {
		if !ws.alive && !ws.departed {
			co.res.DeadWorkers = append(co.res.DeadWorkers, ws.wid)
		}
	}
	co.res.Params = co.net.CloneParams()
	co.publishStatus()
	return co.res, nil
}

// closeLeftoverAdmitted shuts down admitted connections that never
// became workers (still waiting for admission, or never sent a join).
func (co *Coordinator) closeLeftoverAdmitted() {
	co.admMu.Lock()
	admitted := co.admitted
	co.admMu.Unlock()
	for _, c := range admitted {
		if _, became := co.byConn[c]; became {
			continue
		}
		_ = c.Send(&transport.Message{Kind: transport.KindShutdown})
		c.Close()
	}
	co.pendingJoins = nil
	co.pendingJoinReq = map[transport.Conn]transport.Compression{}
}

// register pairs worker ids with connections. In fault-tolerant mode a
// connection that dies, stays silent past WorkerTimeout, or violates the
// protocol forfeits its slot without taking the session down; the
// session proceeds if at least one worker registered.
func (co *Coordinator) register(conns []transport.Conn) error {
	resolved := 0
	var deadline <-chan time.Time
	if co.faultTolerant() {
		tm := time.NewTimer(co.cfg.WorkerTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
wait:
	for resolved < len(conns) {
		select {
		case ev := <-co.events:
			if ev.err != nil {
				if co.rejected[ev.conn] {
					continue // already accounted when it was rejected
				}
				if ws, known := co.byConn[ev.conn]; known {
					// Registered, then died before the first iteration.
					if !co.faultTolerant() {
						return fmt.Errorf("rt: worker %d lost during registration: %w", ws.wid, ev.err)
					}
					co.markDead(ws, "register", ev.err)
					continue
				}
				if !co.initial[ev.conn] {
					co.dropPendingJoin(ev.conn, "register", ev.err)
					continue
				}
				resolved++
				if !co.faultTolerant() {
					return fmt.Errorf("rt: worker lost during registration: %w", ev.err)
				}
				co.recordFault(-1, "register", transport.Classify(ev.err).String(), ev.err.Error())
				continue
			}
			if ws, known := co.byConn[ev.conn]; known {
				// A registered worker must stay quiet until iter-start.
				detail := fmt.Errorf("%w: worker %d sent %v during registration", errProtocol, ws.wid, ev.msg.Kind)
				if !co.faultTolerant() {
					return detail
				}
				co.markDead(ws, "register", detail)
				continue
			}
			if co.elastic() && ev.msg.Kind == transport.KindJoin {
				// An early joiner: park it for the first barrier. If it
				// arrived on one of the initial connections it consumed a
				// registration slot, which fault tolerance absorbs.
				co.pendingJoins = append(co.pendingJoins, ev.conn)
				co.pendingJoinReq[ev.conn] = ev.msg.GradCodec()
				if co.initial[ev.conn] {
					resolved++
				}
				continue
			}
			if ev.msg.Kind != transport.KindRegister {
				// Identify the offending connection by its slot index so
				// the operator knows which peer misbehaved; in
				// fault-tolerant mode only that connection is shot.
				idx := co.connIndex(conns, ev.conn)
				detail := fmt.Sprintf("conn %d: expected register, got %v (wid field %d)", idx, ev.msg.Kind, ev.msg.WID)
				if !co.faultTolerant() {
					return fmt.Errorf("rt: %s", detail)
				}
				co.rejected[ev.conn] = true
				ev.conn.Close()
				co.recordFault(-1, "register", "protocol", detail)
				if co.initial[ev.conn] {
					resolved++
				}
				continue
			}
			wid := ev.msg.WID
			if wid < 0 || wid >= co.cfg.Workers {
				detail := fmt.Sprintf("conn %d: worker id %d out of range [0,%d)", co.connIndex(conns, ev.conn), wid, co.cfg.Workers)
				if !co.faultTolerant() {
					return fmt.Errorf("rt: %s", detail)
				}
				co.rejected[ev.conn] = true
				ev.conn.Close()
				co.recordFault(-1, "register", "protocol", detail)
				if co.initial[ev.conn] {
					resolved++
				}
				continue
			}
			ws := co.workers[wid]
			if ws.conn != nil {
				detail := fmt.Sprintf("conn %d: duplicate worker id %d", co.connIndex(conns, ev.conn), wid)
				if !co.faultTolerant() {
					return fmt.Errorf("rt: %s", detail)
				}
				co.rejected[ev.conn] = true
				ev.conn.Close()
				co.recordFault(wid, "register", "protocol", detail)
				if co.initial[ev.conn] {
					resolved++
				}
				continue
			}
			ws.conn = ev.conn
			ws.alive = true
			ws.codec = co.negotiate(wid, ev.msg.GradCodec())
			co.byConn[ev.conn] = ws
			resolved++
		case <-deadline:
			// Whoever has not spoken by now forfeits registration.
			break wait
		}
	}
	live := 0
	for _, ws := range co.workers {
		if ws.alive {
			live++
		} else if ws.conn == nil {
			co.recordFault(ws.wid, "register", "missing", "never registered")
		}
	}
	if live == 0 {
		return fmt.Errorf("rt: no workers registered")
	}
	return nil
}

// initGradArena carves nTok sets of per-tensor gradient views out of one
// flat float32 arena sized to the whole iteration's gradient volume. The
// arena lives for the session and is overwritten every iteration —
// reports are copied into their token's views as they arrive, replacing
// the old pattern of retaining every report's freshly allocated slices
// until the barrier.
func (co *Coordinator) initGradArena(nTok int) {
	params := co.net.Params()
	per := 0
	for _, t := range params {
		per += t.Len()
	}
	arena := make([]float32, nTok*per)
	co.gradViews = make([][][]float32, nTok)
	off := 0
	for seq := range co.gradViews {
		views := make([][]float32, len(params))
		for i, t := range params {
			n := t.Len()
			views[i] = arena[off : off+n : off+n]
			off += n
		}
		co.gradViews[seq] = views
	}
}

// connIndex locates a connection among the initial slots (-1 for
// admitted connections).
func (co *Coordinator) connIndex(conns []transport.Conn, c transport.Conn) int {
	for i, cc := range conns {
		if cc == c {
			return i
		}
	}
	return -1
}

// runIteration seeds this iteration's tokens, broadcasts parameters, and
// collects every token's gradients, surviving worker deaths along the
// way in fault-tolerant mode.
func (co *Coordinator) runIteration(nTok int) error {
	// Seed tokens. Without elasticity a token seq's shard owner is seq
	// mod workers, so every worker starts with its own STB (Eq. 2's
	// floor); with elasticity the membership policy's re-tuner chooses
	// the distribution over the live set. Ownership only steers who
	// trains first — aggregation order is fixed by seq — so any
	// distribution preserves bitwise reproducibility.
	owners := co.ownership(nTok)
	if owners == nil {
		return fmt.Errorf("rt: no trainable workers at iteration %d start", co.it)
	}
	co.tokens = make([]*tokenState, nTok)
	for seq := 0; seq < nTok; seq++ {
		co.tokens[seq] = &tokenState{info: transport.TokenInfo{
			ID:    co.it*nTok + seq,
			Seq:   seq,
			Lo:    seq * co.cfg.TokenBatch,
			Hi:    (seq + 1) * co.cfg.TokenBatch,
			Owner: owners[seq],
		}}
	}
	co.waiting = co.waiting[:0]
	co.iterTokens = map[int]int{}
	// One root span per iteration; its context rides in the iter-start
	// broadcast so worker-side fetch/compute spans join the same trace.
	co.iterSpan = co.cfg.Spans.StartRoot("iteration", 0)
	params := flatten(co.net.Params())
	start := &transport.Message{Kind: transport.KindIterStart, Iter: co.it, Params: params, Span: co.iterSpan.Context()}
	// Encode-once fan-out: over the binary codec the parameter payload
	// is serialized exactly once per iteration and every worker —
	// including joiners admitted at this barrier — receives the same
	// cached frame. Transports without shareable frames fall back to a
	// plain send of the same message.
	bc := transport.NewBroadcast(start)
	for _, ws := range co.workers {
		if !ws.alive || ws.draining {
			continue
		}
		if err := transport.SendBroadcast(ws.conn, bc); err != nil {
			if !co.faultTolerant() {
				return fmt.Errorf("rt: iter-start to worker %d: %w", ws.wid, err)
			}
			co.markDead(ws, "iteration", err)
		}
	}
	if co.trainableCount() == 0 {
		return fmt.Errorf("rt: all workers lost at iteration %d start", co.it)
	}

	var tick <-chan time.Time
	if co.faultTolerant() {
		period := co.cfg.WorkerTimeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		tick = ticker.C
	}

	remaining := nTok
	for remaining > 0 {
		select {
		case ev := <-co.events:
			ws := co.byConn[ev.conn]
			if ws == nil {
				if err := co.strayEvent(ev); err != nil {
					return err
				}
				continue
			}
			if ev.err != nil {
				if !ws.alive {
					continue // pump winding down after markDead closed it
				}
				if ws.draining {
					// A drain racing a real death: the departure was
					// already planned and its tokens already returned, so
					// finalize quietly; the leave completes (and is
					// recorded) at the barrier as scheduled.
					ws.alive = false
					ws.departed = true
					ws.conn.Close()
					continue
				}
				if !co.faultTolerant() {
					return fmt.Errorf("rt: worker connection failed: %w", ev.err)
				}
				co.markDead(ws, "iteration", ev.err)
				if err := co.serveWaiting(); err != nil {
					return err
				}
				continue
			}
			if !ws.alive {
				continue // zombie: message raced with the death verdict
			}
			m := ev.msg
			switch m.Kind {
			case transport.KindRequest:
				if ws.draining {
					continue // request in flight raced the leave announcement
				}
				tok := pick(co.tokens, ws.wid)
				if tok == nil {
					// Nothing assignable now. Park the request so a
					// token freed by a later death can be re-served;
					// otherwise the worker waits for the next
					// iter-start and re-requests itself.
					co.waiting = append(co.waiting, ws)
					continue
				}
				if err := co.sendAssign(ws, tok); err != nil {
					if !co.faultTolerant() {
						return fmt.Errorf("rt: assign to worker %d: %w", ws.wid, err)
					}
					if co.elastic() {
						// The conn may have closed because a leave is in
						// flight; revert the token and let the recv pump
						// deliver the real verdict (leave or death) in
						// message order instead of ruling death here.
						co.unassign(ws, tok)
					} else {
						co.markDead(ws, "iteration", err)
					}
					if err := co.serveWaiting(); err != nil {
						return err
					}
				}
			case transport.KindReport:
				seq := m.Token.Seq
				if seq < 0 || seq >= nTok || co.tokens[seq].done {
					return fmt.Errorf("rt: bogus report for token seq %d", seq)
				}
				// Exact is always legal (codec-blind transports degrade to
				// it losslessly); anything else must match the negotiation.
				if rc := m.GradCodec(); rc != transport.CompressExact && rc != ws.codec {
					return fmt.Errorf("rt: worker %d reported with codec %v, negotiated %v", ws.wid, rc, ws.codec)
				}
				// Validate and copy the gradients into the token's arena
				// views now, so the (possibly pooled) message can be
				// released instead of retained until the barrier.
				views := co.gradViews[seq]
				if len(m.Grads) != len(views) {
					return fmt.Errorf("rt: report for token %d carries %d gradient tensors, want %d", seq, len(m.Grads), len(views))
				}
				for i, g := range m.Grads {
					if len(g) != len(views[i]) {
						return fmt.Errorf("rt: gradient %d size mismatch", i)
					}
					copy(views[i], g)
				}
				tok := co.tokens[seq]
				tok.done = true
				tok.grads = views
				tok.loss = m.Loss
				if assignedAt, ok := ws.outstanding[seq]; ok {
					// The round-trip span's context makes the worst token
					// the histogram's exemplar — follow trace_id from a
					// /metrics scrape straight into the trace.
					co.tele.tokenLat.ObserveExemplar(time.Since(assignedAt).Seconds(), tok.span.Context())
				}
				tok.span.End()
				tok.span = nil
				delete(ws.outstanding, seq)
				co.res.TokensByWorker[ws.wid]++
				co.iterTokens[ws.wid]++
				co.cfg.Metrics.Counter(MetricTokensTotal, "worker", strconv.Itoa(ws.wid)).Inc()
				if tok.info.Owner != ws.wid {
					co.res.Steals++
					co.tele.steals.Inc()
				}
				remaining--
				m.Release() // gradients are copied out; recycle the codec arena
			case transport.KindLeave:
				if !co.elastic() {
					detail := fmt.Errorf("%w: worker %d sent leave without elastic mode", errProtocol, ws.wid)
					if !co.faultTolerant() {
						return detail
					}
					co.markDead(ws, "iteration", detail)
					if err := co.serveWaiting(); err != nil {
						return err
					}
					continue
				}
				co.announceDrain(ws)
				if err := co.serveWaiting(); err != nil {
					return err
				}
			default:
				detail := fmt.Errorf("%w: worker %d sent unexpected %v mid-iteration", errProtocol, ws.wid, m.Kind)
				if !co.faultTolerant() {
					return detail
				}
				co.markDead(ws, "iteration", detail)
				if err := co.serveWaiting(); err != nil {
					return err
				}
			}
		case <-tick:
			now := time.Now()
			for _, ws := range co.workers {
				if !ws.alive || ws.draining {
					continue
				}
				for _, at := range ws.outstanding {
					if now.Sub(at) > co.cfg.WorkerTimeout {
						co.markDead(ws, "iteration", errWorkerHung)
						break
					}
				}
			}
			if err := co.serveWaiting(); err != nil {
				return err
			}
		}
		if co.trainableCount() == 0 {
			return fmt.Errorf("rt: all workers lost at iteration %d with %d tokens unreported", co.it, remaining)
		}
	}
	return nil
}

// strayEvent handles traffic from connections that are not (yet)
// workers: join requests and the deaths of would-be joiners.
func (co *Coordinator) strayEvent(ev event) error {
	if ev.err != nil {
		if !co.rejected[ev.conn] {
			co.dropPendingJoin(ev.conn, "join", ev.err)
		}
		return nil
	}
	if co.elastic() && ev.msg.Kind == transport.KindJoin {
		for _, c := range co.pendingJoins {
			if c == ev.conn {
				return nil // duplicate join request
			}
		}
		co.pendingJoins = append(co.pendingJoins, ev.conn)
		co.pendingJoinReq[ev.conn] = ev.msg.GradCodec()
		return nil
	}
	// Anything else from a non-worker connection is a protocol
	// violation: shoot just that connection.
	if !co.rejected[ev.conn] {
		co.rejected[ev.conn] = true
		ev.conn.Close()
		co.recordFault(-1, "join", "protocol", fmt.Sprintf("non-worker connection sent %v", ev.msg.Kind))
	}
	return nil
}

// dropPendingJoin forgets a would-be joiner whose connection died before
// admission.
func (co *Coordinator) dropPendingJoin(c transport.Conn, phase string, cause error) {
	for i, pc := range co.pendingJoins {
		if pc == c {
			co.pendingJoins = append(co.pendingJoins[:i], co.pendingJoins[i+1:]...)
			delete(co.pendingJoinReq, c)
			co.recordFault(-1, phase, transport.Classify(cause).String(), cause.Error())
			return
		}
	}
}

// announceDrain starts a graceful leave: the worker stops receiving
// tokens immediately and its outstanding tokens flow back through the
// same return path as a dead worker's; the departure itself completes at
// the next iteration barrier.
func (co *Coordinator) announceDrain(ws *workerState) {
	if ws.draining {
		return
	}
	ws.draining = true
	co.recordFlight("drain", ws.wid, "", "")
	co.reclaimTokens(ws)
	co.pendingLeaves = append(co.pendingLeaves, ws)
}

// applyMembership runs the iteration-barrier membership protocol: the
// policy sees the completed iteration's live timing signal and decides
// which pending joins, drains and evictions to apply. Joins are applied
// before leaves and evictions, so a join+leave in one barrier window
// never dips the live count below its resting value.
func (co *Coordinator) applyMembership(iterTime time.Duration) {
	if !co.elastic() {
		return
	}
	pendingLeaves := make([]int, 0, len(co.pendingLeaves))
	for _, ws := range co.pendingLeaves {
		pendingLeaves = append(pendingLeaves, ws.wid)
	}
	sort.Ints(pendingLeaves)
	dec := co.cfg.Elastic.AtBarrier(BarrierInfo{
		Iter:           co.it,
		Live:           co.trainableIDs(),
		PendingJoins:   len(co.pendingJoins),
		PendingLeaves:  pendingLeaves,
		IterTime:       iterTime,
		TokensByWorker: co.iterTokens,
	})
	effect := co.it + 1

	admit := dec.AdmitJoins
	if admit > len(co.pendingJoins) {
		admit = len(co.pendingJoins)
	}
	for i := 0; i < admit; i++ {
		conn := co.pendingJoins[0]
		co.pendingJoins = co.pendingJoins[1:]
		wid := len(co.workers)
		ws := &workerState{wid: wid, conn: conn, alive: true, outstanding: map[int]time.Time{}}
		ws.codec = co.negotiate(wid, co.pendingJoinReq[conn])
		delete(co.pendingJoinReq, conn)
		co.workers = append(co.workers, ws)
		co.byConn[conn] = ws
		co.res.TokensByWorker = append(co.res.TokensByWorker, 0)
		// The admission ack carries the assigned wid and the negotiated
		// gradient codec; the next iter-start broadcast delivers the
		// current model snapshot before the joiner's first pull.
		ack := &transport.Message{Kind: transport.KindJoin, WID: wid, Iter: effect}
		ack.SetGradCodec(ws.codec)
		if err := conn.Send(ack); err != nil {
			co.markDead(ws, "join", err)
			continue
		}
		co.recordScale(metrics.ScaleJoin, wid, effect)
	}

	for _, wid := range dec.CompleteLeaves {
		ws := co.takePendingLeave(wid)
		if ws == nil {
			continue
		}
		if ws.alive {
			_ = ws.conn.Send(&transport.Message{Kind: transport.KindDrainAck, WID: wid, Iter: effect})
			ws.alive = false
			ws.departed = true
			ws.conn.Close()
		}
		co.recordScale(metrics.ScaleLeave, wid, effect)
	}

	for _, wid := range dec.Evict {
		if wid < 0 || wid >= len(co.workers) {
			continue
		}
		ws := co.workers[wid]
		if !ws.alive || ws.draining {
			continue
		}
		_ = ws.conn.Send(&transport.Message{Kind: transport.KindShutdown})
		ws.alive = false
		ws.departed = true
		ws.conn.Close()
		co.recordScale(metrics.ScaleEvict, wid, effect)
	}

	// Migration requests: the worker answers with a leave, so the
	// actual departure arrives through the drain path and completes at
	// a later barrier. A send failure here is an ordinary death.
	for _, wid := range dec.Reassign {
		if wid < 0 || wid >= len(co.workers) {
			continue
		}
		ws := co.workers[wid]
		if !ws.alive || ws.draining {
			continue
		}
		if err := ws.conn.Send(&transport.Message{Kind: transport.KindReassign, WID: wid, Iter: effect}); err != nil {
			co.markDead(ws, "reassign", err)
			continue
		}
		co.recordScale(metrics.ScaleReassign, wid, effect)
	}
}

// takePendingLeave removes and returns the pending drain for wid, nil if
// there is none.
func (co *Coordinator) takePendingLeave(wid int) *workerState {
	for i, ws := range co.pendingLeaves {
		if ws.wid == wid {
			co.pendingLeaves = append(co.pendingLeaves[:i], co.pendingLeaves[i+1:]...)
			return ws
		}
	}
	return nil
}

// ownership chooses each token's owner for the coming iteration, nil if
// no worker can train.
func (co *Coordinator) ownership(nTok int) []int {
	if !co.elastic() {
		out := make([]int, nTok)
		for seq := range out {
			out[seq] = seq % co.cfg.Workers
		}
		return out
	}
	live := co.trainableIDs()
	if len(live) == 0 {
		return nil
	}
	if d := co.cfg.Elastic.Distribution(nTok, live); validDistribution(d, nTok, live) {
		return d
	}
	out := make([]int, nTok)
	for seq := range out {
		out[seq] = live[seq%len(live)]
	}
	return out
}

// validDistribution checks a policy-provided ownership vector: right
// length, every owner live.
func validDistribution(d []int, nTok int, live []int) bool {
	if len(d) != nTok {
		return false
	}
	ok := map[int]bool{}
	for _, wid := range live {
		ok[wid] = true
	}
	for _, o := range d {
		if !ok[o] {
			return false
		}
	}
	return true
}

// sendAssign reserves the token for the worker and ships it. The assign
// carries a fresh child span of the iteration span; the worker's compute
// span continues the same trace on the other side of the wire.
func (co *Coordinator) sendAssign(ws *workerState, tok *tokenState) error {
	tok.assigned = true
	tok.span = co.cfg.Spans.StartChild("token-roundtrip", ws.wid, co.iterSpan.Context())
	ws.outstanding[tok.info.Seq] = time.Now()
	co.recordFlight("token.assign", ws.wid, tok.span.Context().TraceHex(),
		"seq="+strconv.Itoa(tok.info.Seq))
	// Every assign restates the negotiated codec, so a worker that
	// registered through a codec-blind transport (which drops the
	// negotiation field) still learns the verdict before its first
	// report.
	am := &transport.Message{
		Kind: transport.KindAssign, Iter: co.it, Token: tok.info, Span: tok.span.Context(),
	}
	am.SetGradCodec(ws.codec)
	return ws.conn.Send(am)
}

// unassign reverts an assignment whose send never reached the worker:
// the token returns to the pool as if never handed out (no Reassigned
// count — nothing was lost in flight).
func (co *Coordinator) unassign(ws *workerState, tok *tokenState) {
	tok.assigned = false
	tok.span = nil // never recorded: the assignment never happened
	delete(ws.outstanding, tok.info.Seq)
}

// reclaimTokens returns a worker's unreported tokens to the pool — the
// shared return path for deaths, hangs and graceful drains.
func (co *Coordinator) reclaimTokens(ws *workerState) {
	for seq := range ws.outstanding {
		if co.tokens != nil && !co.tokens[seq].done {
			co.recordFlight("token.return", ws.wid, co.tokens[seq].span.Context().TraceHex(),
				"seq="+strconv.Itoa(seq))
			co.tokens[seq].assigned = false
			co.tokens[seq].span = nil // round trip never completed
			co.res.Reassigned++
			co.tele.reassigned.Inc()
		}
		delete(ws.outstanding, seq)
	}
}

// markDead declares the worker lost: its connection is closed, its
// unreported tokens return to the pool, and the fault is recorded.
func (co *Coordinator) markDead(ws *workerState, phase string, cause error) {
	if !ws.alive {
		return
	}
	ws.alive = false
	ws.conn.Close()
	co.reclaimTokens(ws)
	class := transport.Classify(cause)
	name := class.String()
	if errors.Is(cause, errWorkerHung) {
		name = transport.ClassTimeout.String()
	}
	if errors.Is(cause, errProtocol) {
		name = "protocol"
	}
	co.recordFault(ws.wid, phase, name, cause.Error())
}

// serveWaiting re-serves parked pull requests after tokens return to
// the pool, in arrival order. A send failure kills that worker and may
// free more tokens, so it loops until a full pass makes no progress.
func (co *Coordinator) serveWaiting() error {
	for {
		progress := false
		pend := co.waiting
		co.waiting = nil
		for _, ws := range pend {
			if !ws.alive || ws.draining {
				continue
			}
			tok := pick(co.tokens, ws.wid)
			if tok == nil {
				co.waiting = append(co.waiting, ws)
				continue
			}
			if err := co.sendAssign(ws, tok); err != nil {
				if !co.faultTolerant() {
					return fmt.Errorf("rt: assign to worker %d: %w", ws.wid, err)
				}
				if co.elastic() {
					co.unassign(ws, tok) // same deferral as the direct path
				} else {
					co.markDead(ws, "iteration", err)
				}
			}
			progress = true
		}
		if !progress {
			return nil
		}
	}
}

// trainableCount reports how many workers can still train tokens (alive
// and not draining).
func (co *Coordinator) trainableCount() int {
	n := 0
	for _, ws := range co.workers {
		if ws.alive && !ws.draining {
			n++
		}
	}
	return n
}

// trainableIDs lists the trainable worker ids, ascending.
func (co *Coordinator) trainableIDs() []int {
	var out []int
	for _, ws := range co.workers {
		if ws.alive && !ws.draining {
			out = append(out, ws.wid)
		}
	}
	return out
}

// recordFault appends a fault event to the result, the faults counter
// and the flight recorder.
func (co *Coordinator) recordFault(wid int, phase, class, detail string) {
	at := time.Since(co.start).Seconds()
	co.res.Faults = append(co.res.Faults, metrics.FaultEvent{
		Time: at, Worker: wid, Iter: co.it, Phase: phase, Class: class, Detail: detail,
	})
	co.cfg.Metrics.Counter(MetricFaultsTotal, "class", class).Inc()
	co.recordFlight("death", wid, co.iterSpan.Context().TraceHex(), class+" during "+phase+": "+detail)
}

// recordScale appends a membership change to the result, the scale
// counter and the flight recorder. effectIter is the first iteration
// run under the new membership.
func (co *Coordinator) recordScale(kind string, wid, effectIter int) {
	at := time.Since(co.start).Seconds()
	co.res.Scales = append(co.res.Scales, metrics.ScaleEvent{
		Time: at, Iter: effectIter, Worker: wid, Kind: kind,
	})
	co.cfg.Metrics.Counter(MetricScaleTotal, "kind", kind).Inc()
	co.recordFlight("scale."+kind, wid, "", "effect_iter="+strconv.Itoa(effectIter))
}

// pick chooses a token for the worker: own shard first (HF own-STB), then
// the unassigned token of the owner with the largest backlog (helper
// prioritization); within an owner, lowest sequence first.
func pick(tokens []*tokenState, wid int) *tokenState {
	backlog := map[int][]*tokenState{}
	for _, t := range tokens {
		if !t.assigned && !t.done {
			backlog[t.info.Owner] = append(backlog[t.info.Owner], t)
		}
	}
	if own := backlog[wid]; len(own) > 0 {
		return own[0]
	}
	best := -1
	for owner, ts := range backlog {
		if best == -1 || len(ts) > len(backlog[best]) || (len(ts) == len(backlog[best]) && owner < best) {
			best = owner
		}
	}
	if best == -1 {
		return nil
	}
	return backlog[best][0]
}
