package main

// The benchmark's wrappers. They sit on the program's public seams —
// transport.Conn, gate.Shard, minidnn.Layer — and time the calls that
// cross them. Every wrapper forwards the optional interfaces the program
// type-asserts (transport.TimeoutConn, BroadcastConn and MetricsConn;
// the whole gate.Shard), so the traced run keeps the program's own fast
// paths: without SendBroadcast forwarding, the encode-once parameter
// broadcast would silently fall back to per-worker encodes.

import (
	"sync"
	"time"

	"fela/internal/gate"
	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// tapLog is the shared sink of one measured phase's Conn taps. Times are
// milliseconds since base on the monotonic clock, so worker-side and
// coordinator-side events of one process compare directly.
type tapLog struct {
	mu   sync.Mutex
	base time.Time

	// Worker side.
	iters      []workerIter
	assignRTT  []float64 // µs, Send(request) → Recv(assign)
	reportSend []float64 // ms, Send(report) duration
	report     *transport.Message

	// Coordinator side, keyed by (session, iteration); sessions run one
	// after another (single-session phases only).
	session    int
	iterStart  map[[2]int]float64         // first iter-start broadcast begins
	lastReport map[[2]int]map[int]float64 // → wid → last report arrival
	curIter    int
	bcastSend  []float64 // ms per SendBroadcast call
	picks      []float64 // µs, Recv(request) → Send(assign)
	msgs       int64
	bytes      int64 // Message.WireSize: computed from tensor sizes
}

func newTapLog() *tapLog {
	return &tapLog{
		base:       time.Now(),
		iterStart:  map[[2]int]float64{},
		lastReport: map[[2]int]map[int]float64{},
		curIter:    -1,
	}
}

// newSession starts filing iterations under a fresh session.
func (l *tapLog) newSession() {
	l.mu.Lock()
	l.session++
	l.curIter = -1
	l.mu.Unlock()
}

// reset drops everything recorded so far (after a warm-up).
func (l *tapLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.iters, l.assignRTT, l.reportSend, l.report = nil, nil, nil, nil
	l.bcastSend, l.picks, l.msgs, l.bytes = nil, nil, 0, 0
}

func (l *tapLog) ms(t time.Time) float64 { return float64(t.Sub(l.base)) / 1e6 }

// workerIter is one worker's view of one iteration: iter-start received,
// then install (until the first request is sent), assign waits, compute
// (assign received → report sent) and send time, until its last send.
// The gap from the last send to the next iter-start is barrier wait and
// belongs to no part.
type workerIter struct {
	session   int
	wid, iter int
	recvAt    float64
	closeAt   float64
	install   float64
	wait      float64
	compute   float64
	send      float64
	tokens    int
}

func (w workerIter) parts() float64 { return w.install + w.wait + w.compute + w.send }
func (w workerIter) busy() float64  { return w.install + w.compute + w.send }

// Worker-side phases between messages.
const (
	phIdle = iota
	phInstall
	phWait
	phCompute
)

// workerTap wraps a worker's end of a connection. With clockOnly it
// records nothing but the arrival times of iter-start and shutdown
// messages (the untraced run's per-iteration clock); otherwise it splits
// each iteration into install, wait, compute and send.
type workerTap struct {
	inner     transport.Conn
	log       *tapLog
	wid       int
	clockOnly bool

	// Owned by the worker's protocol goroutine.
	cur   *workerIter
	phase int
	mark  time.Time
	// arrivals is the clock-only record: iter-start and shutdown times.
	arrivals []time.Time
}

func newWorkerTap(inner transport.Conn, log *tapLog, wid int, clockOnly bool) *workerTap {
	return &workerTap{inner: inner, log: log, wid: wid, clockOnly: clockOnly}
}

func (t *workerTap) closeIter(now time.Time) {
	if t.cur == nil {
		return
	}
	t.cur.closeAt = t.log.ms(now)
	t.log.mu.Lock()
	t.log.iters = append(t.log.iters, *t.cur)
	t.log.mu.Unlock()
	t.cur = nil
}

func (t *workerTap) Recv() (*transport.Message, error) {
	m, err := t.inner.Recv()
	now := time.Now()
	if err != nil {
		if !t.clockOnly {
			t.closeIter(now)
		}
		return m, err
	}
	if t.clockOnly {
		if m.Kind == transport.KindIterStart || m.Kind == transport.KindShutdown {
			t.arrivals = append(t.arrivals, now)
		}
		return m, nil
	}
	switch m.Kind {
	case transport.KindIterStart:
		t.closeIter(now)
		t.log.mu.Lock()
		session := t.log.session
		t.log.mu.Unlock()
		t.cur = &workerIter{session: session, wid: t.wid, iter: m.Iter, recvAt: t.log.ms(now)}
		t.phase, t.mark = phInstall, now
	case transport.KindAssign:
		if t.cur != nil && t.phase == phWait {
			d := now.Sub(t.mark)
			t.cur.wait += float64(d) / 1e6
			t.log.mu.Lock()
			t.log.assignRTT = append(t.log.assignRTT, float64(d)/1e3)
			t.log.mu.Unlock()
		}
		t.phase, t.mark = phCompute, now
	default:
		t.closeIter(now)
		t.phase = phIdle
	}
	return m, nil
}

func (t *workerTap) Send(m *transport.Message) error {
	if t.clockOnly {
		return t.inner.Send(m)
	}
	t0 := time.Now()
	if t.cur != nil {
		switch {
		case t.phase == phInstall:
			t.cur.install += float64(t0.Sub(t.mark)) / 1e6
		case t.phase == phCompute && m.Kind == transport.KindReport:
			t.cur.compute += float64(t0.Sub(t.mark)) / 1e6
			t.cur.tokens++
		}
	}
	err := t.inner.Send(m)
	t1 := time.Now()
	d := float64(t1.Sub(t0)) / 1e6
	if t.cur != nil {
		t.cur.send += d
	}
	switch m.Kind {
	case transport.KindRequest:
		t.phase, t.mark = phWait, t1
	case transport.KindReport:
		t.phase = phIdle
		t.log.mu.Lock()
		t.log.reportSend = append(t.log.reportSend, d)
		if t.log.report == nil {
			// Reports carry freshly flattened gradients the worker never
			// touches again, so holding the message is safe.
			t.log.report = m
		}
		t.log.mu.Unlock()
	}
	return err
}

func (t *workerTap) Close() error { return t.inner.Close() }

func (t *workerTap) SetTimeouts(send, recv time.Duration) { transport.SetTimeouts(t.inner, send, recv) }

func (t *workerTap) SendBroadcast(b *transport.Broadcast) error {
	return transport.SendBroadcast(t.inner, b)
}

func (t *workerTap) SetMetrics(reg *obs.Registry) { transport.SetConnMetrics(t.inner, reg) }

// coordTap wraps the coordinator's end of one worker connection. Recv
// runs on the coordinator's per-connection pump goroutine, Send and
// SendBroadcast on its event loop, so all state lives under log.mu.
// With picksOnly (many concurrent sessions share the log) it records
// only pick latency and traffic.
type coordTap struct {
	inner     transport.Conn
	log       *tapLog
	picksOnly bool
	wid       int
	reqAt     time.Time
}

func newCoordTap(inner transport.Conn, log *tapLog, picksOnly bool) *coordTap {
	return &coordTap{inner: inner, log: log, picksOnly: picksOnly, wid: -1}
}

func (t *coordTap) Recv() (*transport.Message, error) {
	m, err := t.inner.Recv()
	if err != nil {
		return m, err
	}
	now := time.Now()
	l := t.log
	l.mu.Lock()
	l.msgs++
	l.bytes += int64(m.WireSize())
	switch m.Kind {
	case transport.KindRegister:
		t.wid = m.WID
	case transport.KindRequest:
		t.reqAt = now
	case transport.KindReport:
		if !t.picksOnly && l.curIter >= 0 {
			key := [2]int{l.session, l.curIter}
			byWID := l.lastReport[key]
			if byWID == nil {
				byWID = map[int]float64{}
				l.lastReport[key] = byWID
			}
			byWID[t.wid] = l.ms(now)
		}
	}
	l.mu.Unlock()
	return m, nil
}

func (t *coordTap) Send(m *transport.Message) error {
	t0 := time.Now()
	err := t.inner.Send(m)
	l := t.log
	l.mu.Lock()
	l.msgs++
	l.bytes += int64(m.WireSize())
	if m.Kind == transport.KindAssign && !t.reqAt.IsZero() {
		l.picks = append(l.picks, float64(t0.Sub(t.reqAt))/1e3)
		t.reqAt = time.Time{}
	}
	l.mu.Unlock()
	return err
}

func (t *coordTap) SendBroadcast(b *transport.Broadcast) error {
	t0 := time.Now()
	l := t.log
	if !t.picksOnly && b.Msg.Kind == transport.KindIterStart {
		// Open the iteration before the bytes leave, so a report that
		// races back is filed under it.
		l.mu.Lock()
		key := [2]int{l.session, b.Msg.Iter}
		if _, ok := l.iterStart[key]; !ok {
			l.iterStart[key] = l.ms(t0)
			l.curIter = b.Msg.Iter
		}
		l.mu.Unlock()
	}
	err := transport.SendBroadcast(t.inner, b)
	d := float64(time.Since(t0)) / 1e6
	l.mu.Lock()
	l.msgs++
	l.bytes += int64(b.Msg.WireSize())
	l.bcastSend = append(l.bcastSend, d)
	l.mu.Unlock()
	return err
}

func (t *coordTap) Close() error { return t.inner.Close() }

func (t *coordTap) SetTimeouts(send, recv time.Duration) { transport.SetTimeouts(t.inner, send, recv) }

func (t *coordTap) SetMetrics(reg *obs.Registry) { transport.SetConnMetrics(t.inner, reg) }

// iterBreakdown reconciles one iteration: wall is iter-start broadcast
// to the next; barrier is the last report's arrival to that next
// broadcast; parts is the last-reporting worker's install, wait, compute
// and send; residual is what neither covers (the broadcast's and the
// last report's transit through encode, wire and decode).
type iterBreakdown struct {
	wall, barrier, parts, spread, residual float64
}

// breakdown reconciles every iteration that has a successor broadcast.
func (l *tapLog) breakdown() []iterBreakdown {
	l.mu.Lock()
	defer l.mu.Unlock()
	byKey := map[[3]int]workerIter{}
	for _, w := range l.iters {
		byKey[[3]int{w.session, w.iter, w.wid}] = w
	}
	var out []iterBreakdown
	for key, start := range l.iterStart {
		next, ok := l.iterStart[[2]int{key[0], key[1] + 1}]
		reps := l.lastReport[key]
		if !ok || len(reps) == 0 {
			continue
		}
		last, first, lastWID := -1.0, -1.0, -1
		for wid, at := range reps {
			if at > last {
				last, lastWID = at, wid
			}
			if first < 0 || at < first {
				first = at
			}
		}
		w, ok := byKey[[3]int{key[0], key[1], lastWID}]
		if !ok {
			continue
		}
		b := iterBreakdown{wall: next - start, barrier: next - last, parts: w.parts(), spread: last - first}
		b.residual = b.wall - b.barrier - b.parts
		out = append(out, b)
	}
	return out
}

// shardTap wraps a gate shard: it times SubmitJob and relays each job's
// terminal result through its own channel, stamping when the result
// crossed the shard boundary. Cancel and Status forward unchanged.
type shardTap struct {
	inner    gate.Shard
	timed    bool
	onSettle func(name string, res jobs.JobResult, at time.Time)

	mu       sync.Mutex
	submits  []float64            // µs per SubmitJob (timed only)
	submitAt map[string]time.Time // job name → SubmitJob returned
}

func newShardTap(inner gate.Shard, timed bool, onSettle func(string, jobs.JobResult, time.Time)) *shardTap {
	return &shardTap{inner: inner, timed: timed, onSettle: onSettle, submitAt: map[string]time.Time{}}
}

func (s *shardTap) SubmitJob(spec transport.JobSpec, opts jobs.SubmitOptions) (int, <-chan jobs.JobResult, error) {
	t0 := time.Now()
	id, ch, err := s.inner.SubmitJob(spec, opts)
	t1 := time.Now()
	if err != nil {
		return id, ch, err
	}
	s.mu.Lock()
	s.submitAt[spec.Name] = t1
	if s.timed {
		s.submits = append(s.submits, float64(t1.Sub(t0))/1e3)
	}
	s.mu.Unlock()
	out := make(chan jobs.JobResult, 1)
	go func() {
		res := <-ch
		s.onSettle(spec.Name, res, time.Now())
		out <- res
	}()
	return id, out, nil
}

// reset drops the SubmitJob timings recorded so far (after a warm-up).
func (s *shardTap) reset() {
	s.mu.Lock()
	s.submits = nil
	s.mu.Unlock()
}

func (s *shardTap) Cancel(id int) { s.inner.Cancel(id) }

func (s *shardTap) Status() *jobs.PoolStatus { return s.inner.Status() }

// layerLog collects one network's per-token layer timings. A network is
// driven by one goroutine, so it needs no lock until the session ends.
type layerLog struct {
	hasConv bool
	tokens  []tokenTimes
	cur     tokenTimes
	start   time.Time
}

// tokenTimes is one token's Network.Loss split by layer kind (ms).
type tokenTimes struct {
	convF, convB, denseF, denseB, total float64
}

// layerTap times one layer's Forward and Backward. The first layer's
// Forward opens a token and its Backward closes it: Network.Loss runs
// the stack forward then backward, so that span is the whole call.
type layerTap struct {
	minidnn.Layer
	kind  string // "conv", "dense" or "other"
	first bool
	log   *layerLog
}

// tapLayers wraps every layer of net in place and returns the log.
func tapLayers(net *minidnn.Network) *layerLog {
	log := &layerLog{}
	for i, l := range net.Layers {
		kind := "other"
		switch l.(type) {
		case *minidnn.Conv2D:
			kind = "conv"
			log.hasConv = true
		case *minidnn.Dense:
			kind = "dense"
		}
		net.Layers[i] = &layerTap{Layer: l, kind: kind, first: i == 0, log: log}
	}
	return log
}

func (t *layerTap) Forward(x *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	if t.first {
		t.log.cur = tokenTimes{}
		t.log.start = t0
	}
	out := t.Layer.Forward(x)
	d := float64(time.Since(t0)) / 1e6
	switch t.kind {
	case "conv":
		t.log.cur.convF += d
	case "dense":
		t.log.cur.denseF += d
	}
	return out
}

func (t *layerTap) Backward(g *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	out := t.Layer.Backward(g)
	now := time.Now()
	d := float64(now.Sub(t0)) / 1e6
	switch t.kind {
	case "conv":
		t.log.cur.convB += d
	case "dense":
		t.log.cur.denseB += d
	}
	if t.first {
		t.log.cur.total = float64(now.Sub(t.log.start)) / 1e6
		t.log.tokens = append(t.log.tokens, t.log.cur)
	}
	return out
}
