package rt

import (
	"strings"
	"testing"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// dumpFlightOnFailure arranges for the process-global flight recorder
// to be dumped to $FELA_FLIGHT_DIR (or the OS temp dir) if the test
// fails, so a bit-identity violation leaves its causal event history
// behind for CI to upload as an artifact.
func dumpFlightOnFailure(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		name := strings.ReplaceAll(t.Name(), "/", "-")
		if path, err := obs.FlightFailureDump(name); err == nil {
			t.Logf("flight-recorder dump: %s", path)
		} else {
			t.Logf("flight-recorder dump failed: %v", err)
		}
	})
}

// chaosCfg returns a fault-tolerant session config. The timeout must
// dwarf a single token's compute time (sub-millisecond here) but stay
// small enough to keep hang-detection tests fast.
func chaosCfg() Config {
	cfg := baseCfg()
	cfg.Iterations = 3
	cfg.WorkerTimeout = 400 * time.Millisecond
	return cfg
}

// throttleHealthy delays every worker except badWID at each iteration
// start. The MLP is so small that a free-running healthy worker can
// drain the whole token pool before the scripted worker's goroutine is
// even scheduled, and the fault then never fires; the throttle
// guarantees the scripted worker reaches its trigger. Sequential
// ignores Delay, so the bitwise-equivalence assertion is unaffected.
func throttleHealthy(cfg *Config, badWID int) {
	cfg.Delay = func(iter, wid int) time.Duration {
		if wid != badWID {
			return 10 * time.Millisecond
		}
		return 0
	}
}

// script tells a misbehaving worker where in the protocol to fail.
type script struct {
	// killPreRegister closes the connection before registering;
	// hangPreRegister goes silent instead.
	killPreRegister, hangPreRegister bool
	// dieIter is the iteration at which the fault fires (the worker
	// behaves correctly before it).
	dieIter int
	// killAtIterStart closes the connection upon receiving dieIter's
	// iter-start (the coordinator is mid-broadcast).
	killAtIterStart bool
	// killOnAssign / hangOnAssign fire after receiving a token
	// assignment in dieIter: the token is held, never reported.
	killOnAssign, hangOnAssign bool
}

// runScripted speaks the worker protocol over conn, failing as directed.
// hang releases hung goroutines at test cleanup.
func runScripted(wid int, conn transport.Conn, cfg Config, sc script, hang <-chan struct{}) {
	if sc.killPreRegister {
		conn.Close()
		return
	}
	if sc.hangPreRegister {
		<-hang
		conn.Close()
		return
	}
	w := NewWorker(wid, mlp(), blobs(), cfg)
	if err := conn.Send(&transport.Message{Kind: transport.KindRegister, WID: wid}); err != nil {
		return
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case transport.KindIterStart:
			if sc.killAtIterStart && m.Iter >= sc.dieIter {
				conn.Close()
				return
			}
			w.setParams(m.Params)
			_ = conn.Send(&transport.Message{Kind: transport.KindRequest, WID: wid})
		case transport.KindAssign:
			if m.Iter >= sc.dieIter {
				if sc.killOnAssign {
					conn.Close()
					return
				}
				if sc.hangOnAssign {
					<-hang
					conn.Close()
					return
				}
			}
			report, err := w.train(m.Token)
			if err != nil {
				return
			}
			if err := conn.Send(report); err != nil {
				return
			}
			_ = conn.Send(&transport.Message{Kind: transport.KindRequest, WID: wid})
		case transport.KindShutdown:
			return
		}
	}
}

// runChaosSession runs a coordinator against cfg.Workers workers where
// badWID runs the given script (badWID < 0 for none) and the rest are
// healthy. wrapServer optionally wraps badWID's server-side connection
// (fault injection on the coordinator's side of the wire).
func runChaosSession(t *testing.T, cfg Config, badWID int, sc script,
	wrapServer func(transport.Conn) transport.Conn) *Result {
	t.Helper()
	dumpFlightOnFailure(t)
	throttleHealthy(&cfg, badWID)
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })

	serverConns := make([]transport.Conn, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		if wid == badWID {
			if wrapServer != nil {
				serverConns[wid] = wrapServer(server)
			}
			go runScripted(wid, client, cfg, sc, hang)
			continue
		}
		w := NewWorker(wid, mlp(), blobs(), cfg)
		// Healthy workers may still exit with an error if the session
		// ends while their last send is in flight; the coordinator's
		// result is what the test asserts on.
		go func() { _ = w.Run(client) }()
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := co.Run(serverConns)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("coordinator failed: %v", out.err)
		}
		return out.res
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung")
		return nil
	}
}

// assertChaosOutcome checks the invariants every chaos run must keep:
// the session completed, the result is bit-identical to Sequential, all
// tokens were trained, and exactly the scripted worker died.
func assertChaosOutcome(t *testing.T, cfg Config, res *Result, badWID int) {
	t.Helper()
	seq, err := Sequential(mlp(), blobs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(seq.Params, res.Params) {
		t.Fatal("chaos run diverged from sequential reference")
	}
	total := 0
	for _, n := range res.TokensByWorker {
		total += n
	}
	if want := cfg.Iterations * cfg.TotalBatch / cfg.TokenBatch; total != want {
		t.Fatalf("tokens trained = %d, want %d", total, want)
	}
	if len(res.Faults) == 0 {
		t.Fatal("no fault events recorded")
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != badWID {
		t.Fatalf("DeadWorkers = %v, want [%d]", res.DeadWorkers, badWID)
	}
}

// TestChaosKillMidIteration is the headline recovery property: a worker
// dies while holding an assigned token mid-iteration, the coordinator
// reassigns the dead worker's tokens, the session completes, and the
// parameters stay bit-identical to Sequential.
func TestChaosKillMidIteration(t *testing.T) {
	cfg := chaosCfg()
	res := runChaosSession(t, cfg, 2, script{dieIter: 1, killOnAssign: true}, nil)
	assertChaosOutcome(t, cfg, res, 2)
	if res.Reassigned == 0 {
		t.Error("dead worker held a token but nothing was reassigned")
	}
	if res.TokensByWorker[2] == 0 {
		t.Error("worker 2 should have trained tokens before dying at iteration 1")
	}
}

// TestChaosEveryProtocolState kills or hangs one worker at every
// protocol state and asserts the run still completes bit-identically.
func TestChaosEveryProtocolState(t *testing.T) {
	cases := []struct {
		name string
		sc   script
	}{
		{"kill-pre-register", script{killPreRegister: true}},
		{"hang-pre-register", script{hangPreRegister: true}},
		{"kill-during-iter-start-broadcast", script{killAtIterStart: true}},
		{"kill-at-later-iter-start", script{killAtIterStart: true, dieIter: 2}},
		{"kill-post-assign", script{killOnAssign: true}},
		{"hang-post-assign", script{hangOnAssign: true, dieIter: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := chaosCfg()
			res := runChaosSession(t, cfg, 1, tc.sc, nil)
			assertChaosOutcome(t, cfg, res, 1)
		})
	}
}

// TestChaosGarbledReport corrupts the wire mid-report: the coordinator
// classifies the codec failure, kills the connection, and recovers.
func TestChaosGarbledReport(t *testing.T) {
	cfg := chaosCfg()
	// Server-side receive #2 is the worker's first report (after
	// register and the first request): the report arrives garbled.
	wrap := func(c transport.Conn) transport.Conn {
		return transport.NewFaultConn(c, 42).GarbleRecvsAfter(2)
	}
	res := runChaosSession(t, cfg, 3, script{dieIter: 1 << 30}, wrap)
	assertChaosOutcome(t, cfg, res, 3)
	st := metrics.SummarizeFaults(res.Faults)
	if st.ByClass["codec"] == 0 {
		t.Errorf("expected a codec-classified fault, got %v", st.ByClass)
	}
}

// TestChaosHungWorkerClassifiedTimeout: a hang (vs a crash) must be
// detected by deadline expiry and classified as a timeout.
func TestChaosHungWorkerClassifiedTimeout(t *testing.T) {
	cfg := chaosCfg()
	res := runChaosSession(t, cfg, 0, script{hangOnAssign: true}, nil)
	assertChaosOutcome(t, cfg, res, 0)
	st := metrics.SummarizeFaults(res.Faults)
	if st.ByClass["timeout"] == 0 {
		t.Errorf("hang not classified as timeout: %v", st.ByClass)
	}
	if res.Reassigned == 0 {
		t.Error("hung worker's token was never reassigned")
	}
}

// TestChaosFaultsAreTraced: every fault in the result lands in the
// session's flight ring as a death event against the same worker.
func TestChaosFaultsAreTraced(t *testing.T) {
	cfg := chaosCfg()
	cfg.Flight = obs.NewFlightRecorder(1 << 12)
	res := runChaosSession(t, cfg, 1, script{killOnAssign: true}, nil)
	assertChaosOutcome(t, cfg, res, 1)
	faults := flightEvents(cfg.Flight, "death")
	if len(faults) != len(res.Faults) {
		t.Fatalf("flight ring has %d death events, result has %d", len(faults), len(res.Faults))
	}
	if faults[0].Worker != 1 {
		t.Errorf("fault recorded against worker %d, want 1", faults[0].Worker)
	}
}

// flightEvents returns the ring's events with the given name, in
// record order.
func flightEvents(f *obs.FlightRecorder, event string) []obs.FlightEvent {
	var out []obs.FlightEvent
	for _, ev := range f.Snapshot(0) {
		if ev.Event == event {
			out = append(out, ev)
		}
	}
	return out
}

// TestChaosAllWorkersDie: losing every worker must surface an error,
// not a hang.
func TestChaosAllWorkersDie(t *testing.T) {
	dumpFlightOnFailure(t)
	cfg := chaosCfg()
	cfg.Workers = 2
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	serverConns := make([]transport.Conn, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		go runScripted(wid, client, cfg, script{killOnAssign: true}, hang)
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(serverConns)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("coordinator succeeded with every worker dead")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung with every worker dead")
	}
}

// TestChaosStrictModeStillAborts: without WorkerTimeout the old
// fail-fast contract holds — a dead worker aborts the session.
func TestChaosStrictModeStillAborts(t *testing.T) {
	dumpFlightOnFailure(t)
	cfg := chaosCfg()
	cfg.WorkerTimeout = 0
	throttleHealthy(&cfg, 1)
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	serverConns := make([]transport.Conn, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		server, client := transport.Pair()
		serverConns[wid] = server
		if wid == 1 {
			go runScripted(wid, client, cfg, script{killOnAssign: true}, hang)
			continue
		}
		go func(wid int) { _ = NewWorker(wid, mlp(), blobs(), cfg).Run(client) }(wid)
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(serverConns)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("strict-mode coordinator tolerated a dead worker")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("strict-mode coordinator hung")
	}
}

// TestChaosTCPWorkerKill runs the kill-mid-iteration scenario over real
// TCP connections: the dead peer surfaces via the socket, the session
// completes, and the result matches Sequential.
func TestChaosTCPWorkerKill(t *testing.T) {
	dumpFlightOnFailure(t)
	cfg := chaosCfg()
	cfg.Workers = 3
	throttleHealthy(&cfg, 2)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	for wid := 0; wid < cfg.Workers; wid++ {
		wid := wid
		go func() {
			conn, err := transport.Dial(l.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			if wid == 2 {
				runScripted(wid, conn, cfg, script{dieIter: 1, killOnAssign: true}, hang)
				return
			}
			defer conn.Close()
			_ = NewWorker(wid, mlp(), blobs(), cfg).Run(conn)
		}()
	}
	conns := make([]transport.Conn, cfg.Workers)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	co, err := NewCoordinator(mlp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(conns)
	if err != nil {
		t.Fatal(err)
	}
	assertChaosOutcome(t, cfg, res, 2)
}
