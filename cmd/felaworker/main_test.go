package main

import (
	"testing"
	"time"

	"fela/internal/minidnn"
	"fela/internal/rt"
	"fela/internal/transport"
)

// healthFromStatus backs the /healthz endpoint of a fixed-wid worker:
// healthy while training, 503 once the worker announces a graceful
// leave, and healthy when no status has been published yet (startup).
func TestHealthFromStatus(t *testing.T) {
	if err := healthFromStatus(nil); err != nil {
		t.Errorf("nil status: got %v, want healthy", err)
	}
	if err := healthFromStatus(&rt.WorkerStatus{WID: 3}); err != nil {
		t.Errorf("running worker: got %v, want healthy", err)
	}
	err := healthFromStatus(&rt.WorkerStatus{WID: 3, Draining: true})
	if err == nil {
		t.Fatal("draining worker: got nil, want error (503)")
	}
}

// TestReconnectSurvivesCoordinatorRestart: with -reconnect, a fixed-wid
// worker outlives its coordinator. The first incarnation accepts the
// registration and dies (connection closed, as a crashed felaserver
// would); the worker must re-dial, re-register with a fresh replica,
// and complete the session the second incarnation serves.
func TestReconnectSurvivesCoordinatorRestart(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr()

	workerDone := make(chan error, 1)
	go func() {
		workerDone <- run(addr, 0, 1, 3, 0, 50, false, -1, true, "", transport.CompressExact)
	}()

	// Incarnation one: take the registration, then die.
	c1, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if m, err := c1.Recv(); err != nil || m.Kind != transport.KindRegister {
		t.Fatalf("first contact: msg %v err %v, want register", m, err)
	}
	c1.Close()

	// Incarnation two: serve a real session to completion. The worker's
	// replica must arrive fresh — the coordinator verifies the result
	// bitwise against the sequential reference.
	c2, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.Config{Workers: 1, TotalBatch: 64, TokenBatch: 8, Iterations: 3, LR: 0.05}
	mk := func() *minidnn.Network { return minidnn.NewMLP(42, 16, 32, 4) }
	ds := minidnn.SyntheticBlobs(7, 256, 16, 4)
	co, err := rt.NewCoordinator(mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run([]transport.Conn{c2})
	if err != nil {
		t.Fatalf("second incarnation: %v", err)
	}
	ref, err := rt.Sequential(mk(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !minidnn.ParamsEqual(ref.Params, res.Params) {
		t.Fatal("reconnected worker diverged from sequential reference")
	}
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after the session completed")
	}
}
