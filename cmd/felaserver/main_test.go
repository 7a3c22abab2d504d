package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fmt"

	"fela/internal/durable"
	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/transport"
	"fela/internal/workload"
)

// freeAddr reserves an ephemeral TCP port and returns it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startWorker launches a registered worker over TCP with the session
// config felaworker would derive.
func startWorker(t *testing.T, addr string, wid, workers, iters int, cfg rt.Config, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
		if err != nil {
			t.Errorf("worker %d dial: %v", wid, err)
			return
		}
		defer conn.Close()
		net := minidnn.NewMLP(42, 16, 32, 4)
		ds := minidnn.SyntheticBlobs(7, 256, 16, 4)
		if err := rt.NewWorker(wid, net, ds, cfg).Run(conn); err != nil {
			switch transport.Classify(err) {
			case transport.ClassPeerGone, transport.ClassClosed:
			default:
				t.Errorf("worker %d: %v", wid, err)
			}
		}
	}()
}

// TestServerStrictSession: the pre-elastic path still works end to end
// over TCP.
func TestServerStrictSession(t *testing.T) {
	addr := freeAddr(t)
	const workers, iters = 2, 4
	cfg, _, _ := sessionConfig(workers, iters, 0)

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		startWorker(t, addr, wid, workers, iters, cfg, &wg)
	}
	if err := run(addr, workers, iters, 0, elasticOpts{}, obsOpts{}, durableOpts{}, nil, 0, transport.CompressExact); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestServerElasticSession drives the full CLI path over real TCP: two
// registered workers, one late joiner (the felaworker -join path), and a
// mid-session drain (-drain-after). The run must verify bit-identity
// against the sequential reference, which the server checks itself.
func TestServerElasticSession(t *testing.T) {
	addr := freeAddr(t)
	const workers, iters = 2, 12
	cfg, _, _ := sessionConfig(workers, iters, 2*time.Second)
	// Throttle registered workers so the session lasts long enough for
	// the joiner to dial in, and so the joiner reliably gets to train
	// once admitted.
	slow := cfg
	slow.Delay = func(int, int) time.Duration { return 15 * time.Millisecond }

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		startWorker(t, addr, wid, workers, iters, slow, &wg)
	}

	// The joiner dials in once the session is already running and drains
	// out again near the end — exercising join, re-tune, and drain in
	// one process lifetime (felaworker -join -drain-after 10).
	joined := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		conn, err := transport.DialRetry(addr, 5, 10*time.Millisecond)
		if err != nil {
			t.Errorf("joiner dial: %v", err)
			joined <- -1
			return
		}
		defer conn.Close()
		jcfg := cfg
		jcfg.Drain = func(iter, _ int) bool { return iter >= 10 }
		net := minidnn.NewMLP(42, 16, 32, 4)
		ds := minidnn.SyntheticBlobs(7, 256, 16, 4)
		assigned, err := rt.Join(conn, net, ds, jcfg)
		if err != nil {
			switch transport.Classify(err) {
			case transport.ClassPeerGone, transport.ClassClosed:
			default:
				t.Errorf("joiner: %v", err)
			}
		}
		joined <- assigned
	}()

	if err := run(addr, workers, iters, 2*time.Second, elasticOpts{enabled: true, minWorkers: 1}, obsOpts{}, durableOpts{}, nil, 0, transport.CompressExact); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if assigned := <-joined; assigned != 2 {
		t.Errorf("joiner assigned wid %d, want 2", assigned)
	}
}

// TestServerElasticValidation: nonsensical elastic bounds fail fast.
func TestServerElasticValidation(t *testing.T) {
	err := run(freeAddr(t), 2, 4, time.Second, elasticOpts{enabled: true, minWorkers: 5, maxWorkers: 2}, obsOpts{}, durableOpts{}, nil, 0, transport.CompressExact)
	if err == nil {
		t.Fatal("min-workers > max-workers accepted")
	}
	if want := "min workers"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// TestServerObservabilityE2E is the acceptance run for the telemetry
// layer: a real TCP elastic session with telemetry enabled and an
// injected straggler, scraped over HTTP while training is in flight.
// It asserts that /metrics parses and carries non-zero token-latency
// buckets plus per-kind transport byte counters, that /statusz tracks
// the live worker count across a join, and that the server's Chrome
// trace export shares trace ids with the workers' — one distributed
// trace per token round-trip.
func TestServerObservabilityE2E(t *testing.T) {
	addr := freeAddr(t)
	statusAddr := freeAddr(t)
	traceJSON := filepath.Join(t.TempDir(), "trace.json")
	const workers, iters = 2, 12
	cfg, _, _ := sessionConfig(workers, iters, 2*time.Second)

	// Workers share one registry and tracer, standing in for felaworker
	// -status-addr processes. Worker 0 is the injected straggler; the
	// delays also stretch the session so the joiner and the HTTP polls
	// land mid-training.
	wcfg := cfg
	wcfg.Metrics = obs.NewRegistry()
	wcfg.Spans = obs.NewTracer("felaworker")
	wcfg.Delay = func(_, wid int) time.Duration {
		if wid == 0 {
			return 25 * time.Millisecond
		}
		return 10 * time.Millisecond
	}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		startWorker(t, addr, wid, workers, iters, wcfg, &wg)
	}

	// A joiner dials in mid-session (felaworker -join) so /statusz has a
	// membership change to report.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
		conn, err := transport.DialRetry(addr, 5, 10*time.Millisecond)
		if err != nil {
			t.Errorf("joiner dial: %v", err)
			return
		}
		defer conn.Close()
		jcfg := wcfg
		net := minidnn.NewMLP(42, 16, 32, 4)
		ds := minidnn.SyntheticBlobs(7, 256, 16, 4)
		if _, err := rt.Join(conn, net, ds, jcfg); err != nil {
			switch transport.Classify(err) {
			case transport.ClassPeerGone, transport.ClassClosed:
			default:
				t.Errorf("joiner: %v", err)
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		done <- run(addr, workers, iters, 2*time.Second,
			elasticOpts{enabled: true, minWorkers: 1},
			obsOpts{statusAddr: statusAddr, traceJSON: traceJSON}, durableOpts{}, nil, 0, transport.CompressExact)
	}()

	// Scrape while the session runs. The obs server dies with run(), so
	// the last successful bodies are the session's final live state.
	var lastMetrics, lastFlight string
	healthOK := false
	liveSeen := map[int]bool{}
	client := &http.Client{Timeout: time.Second}
	deadline := time.After(30 * time.Second)
	var runErr error
poll:
	for {
		select {
		case runErr = <-done:
			break poll
		case <-deadline:
			t.Fatal("session did not finish within 30s")
		case <-time.After(5 * time.Millisecond):
		}
		if resp, err := client.Get("http://" + statusAddr + "/statusz"); err == nil {
			var st rt.Status
			err := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil {
				liveSeen[len(st.LiveWorkers)] = true
			}
		}
		if resp, err := client.Get("http://" + statusAddr + "/metrics"); err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && len(body) > 0 {
				lastMetrics = string(body)
			}
		}
		if resp, err := client.Get("http://" + statusAddr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				healthOK = true
			}
		}
		if resp, err := client.Get("http://" + statusAddr + "/debug/flight"); err == nil {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && len(body) > 0 {
				lastFlight = string(body)
			}
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	wg.Wait()

	// /statusz tracked membership across the join: 2 registered workers,
	// then 3 after the barrier admitted the joiner.
	if !liveSeen[2] || !liveSeen[3] {
		t.Errorf("statusz live-worker counts seen = %v, want both 2 and 3", liveSeen)
	}

	// /healthz answered 200 while the session ran, and /debug/flight
	// streamed the protocol ring as JSONL.
	if !healthOK {
		t.Error("never saw a 200 from /healthz while the session ran")
	}
	if lastFlight == "" {
		t.Error("never scraped /debug/flight successfully")
	}
	flightEvents := 0
	for _, line := range strings.Split(strings.TrimSpace(lastFlight), "\n") {
		if line == "" {
			continue
		}
		var ev obs.FlightEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("flight dump line %q: %v", line, err)
		}
		flightEvents++
	}
	if flightEvents == 0 {
		t.Error("flight dump held no events after a full session")
	}

	// /metrics parses as OpenMetrics-flavoured text — including exemplar
	// suffixes on histogram buckets — and passes the exposition lint.
	if lastMetrics == "" {
		t.Fatal("never scraped /metrics successfully")
	}
	if errs := obs.LintExposition(strings.NewReader(lastMetrics)); len(errs) > 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
	exp, err := obs.ParseExposition(strings.NewReader(lastMetrics))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	tokenCount := 0.0
	tokenBuckets := 0
	exemplars := 0
	byteKinds := map[string]bool{}
	for _, s := range exp.Samples {
		switch {
		case s.Name == rt.MetricTokenSeconds+"_count":
			tokenCount = s.Value
		case s.Name == rt.MetricTokenSeconds+"_bucket":
			if s.Value > 0 {
				tokenBuckets++
			}
			if s.Exemplar != nil {
				exemplars++
			}
		case s.Name == transport.MetricBytes:
			if s.Value > 0 {
				byteKinds[s.Labels["kind"]] = true
			}
		}
	}
	if tokenCount == 0 {
		t.Errorf("%s_count is zero in the final scrape", rt.MetricTokenSeconds)
	}
	if tokenBuckets == 0 {
		t.Errorf("no non-zero %s buckets", rt.MetricTokenSeconds)
	}
	if exemplars == 0 {
		t.Errorf("no exemplars on %s buckets", rt.MetricTokenSeconds)
	}
	if len(byteKinds) < 2 {
		t.Errorf("per-kind transport byte counters = %v, want at least 2 kinds", byteKinds)
	}

	// The server's trace export and the workers' share trace ids: the
	// iteration/token spans the coordinator opened are the parents of the
	// compute spans the workers recorded.
	serverIDs := traceIDs(t, readFileT(t, traceJSON))
	var wbuf bytes.Buffer
	if err := obs.WriteChromeTrace(&wbuf, wcfg.Spans); err != nil {
		t.Fatal(err)
	}
	workerIDs := traceIDs(t, wbuf.Bytes())
	if len(serverIDs) == 0 || len(workerIDs) == 0 {
		t.Fatalf("empty trace exports: server %d ids, workers %d ids", len(serverIDs), len(workerIDs))
	}
	shared := 0
	for id := range workerIDs {
		if serverIDs[id] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no trace id appears in both the server and worker exports")
	}
}

// TestServerJobsMode drives the multi-tenant path end to end over real
// TCP: `felaserver -jobs -alloc throughput-max -max-jobs 2` serving
// three `felaworker -pool` processes and two concurrent wire
// submissions on the same port. The server exits on its own after the
// second completion, both submitters get final parameters bit-identical
// to solo training, and every pool worker exits cleanly within 5 s of
// the drain.
func TestServerJobsMode(t *testing.T) {
	addr := freeAddr(t)

	done := make(chan error, 1)
	go func() {
		done <- runJobs(addr,
			jobsOpts{alloc: "throughput-max", maxJobs: 2}, 2*time.Second, obsOpts{}, durableOpts{}, nil, 0)
	}()

	const poolWorkers = 3
	workersDone := make(chan error, poolWorkers)
	// Jobs are submitted only once every worker's first dial has
	// returned: a worker still backing off toward a listener that has
	// not bound yet is not in the pool, and no drain can reach it.
	var connected sync.WaitGroup
	connected.Add(poolWorkers)
	for i := 0; i < poolWorkers; i++ {
		var first sync.Once
		dial := func() (transport.Conn, error) {
			c, err := transport.DialRetry(addr, 50, 20*time.Millisecond)
			first.Do(connected.Done)
			return c, err
		}
		go func() {
			_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
			workersDone <- err
		}()
	}
	connected.Wait()

	specs := []transport.JobSpec{
		{Name: "tcp-a", Iterations: 12, TotalBatch: 64, TokenBatch: 8, Seed: 0},
		{Name: "tcp-b", Iterations: 16, TotalBatch: 32, TokenBatch: 8, Seed: 5},
	}
	results := make(chan error, len(specs))
	for _, spec := range specs {
		go func(spec transport.JobSpec) {
			m, err := jobs.SubmitAndWait(addr, spec, 50)
			if err != nil {
				results <- err
				return
			}
			ref, err := jobs.Reference(spec)
			if err != nil {
				results <- err
				return
			}
			flat := make([][]float32, len(ref.Params))
			for i, p := range ref.Params {
				flat[i] = p.Data
			}
			if !flatEqual(flat, m.Params) {
				results <- fmt.Errorf("job %s: wire result diverged from solo training", spec.Name)
				return
			}
			results <- nil
		}(spec)
	}
	for range specs {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runJobs: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after -max-jobs completions")
	}
	// The drain tells every pool worker the pool closed, so none is
	// left redialing a closed listener through its retry budget.
	exitBy := time.After(5 * time.Second)
	for i := 0; i < poolWorkers; i++ {
		select {
		case err := <-workersDone:
			if err != nil {
				t.Errorf("pool worker: %v", err)
			}
		case <-exitBy:
			t.Fatalf("%d of %d pool workers still running 5s after the server drained", poolWorkers-i, poolWorkers)
		}
	}
}

// TestServerClusterTrace drives `felaserver -jobs -cluster-trace` end
// to end: a synthesized 4-job trace on disk is replayed (sped up)
// against two TCP pool workers under OASiS admission, and the server
// prints its cluster summary and drains itself once every submission
// settles.
func TestServerClusterTrace(t *testing.T) {
	tr, err := workload.Synthesize(
		workload.Poisson{Rate: 4}, workload.DefaultMix(time.Millisecond), 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	tr.Name = "e2e"
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- runJobs(addr, jobsOpts{
			alloc: "oasis", admission: "oasis", trace: path, traceScale: 4,
		}, 2*time.Second, obsOpts{}, durableOpts{}, nil, 0)
	}()

	const poolWorkers = 2
	workersDone := make(chan error, poolWorkers)
	dial := func() (transport.Conn, error) {
		return transport.DialRetry(addr, 50, 20*time.Millisecond)
	}
	for i := 0; i < poolWorkers; i++ {
		go func() {
			_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
			workersDone <- err
		}()
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runJobs: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain after the trace replay settled")
	}
	for i := 0; i < poolWorkers; i++ {
		if err := <-workersDone; err != nil {
			t.Errorf("pool worker: %v", err)
		}
	}
}

func flatEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// traceIDs extracts the trace_id of every span in a Chrome trace_event
// export, failing the test if the JSON is malformed.
func traceIDs(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	var out struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	ids := map[string]bool{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if id, _ := ev.Args["trace_id"].(string); id != "" {
			ids[id] = true
		}
	}
	return ids
}

// TestJobsModeGracefulShutdown sends a SIGTERM to an idle job manager
// (with a live pool worker attached) and requires a clean nil exit.
func TestJobsModeGracefulShutdown(t *testing.T) {
	addr := freeAddr(t)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- runJobs(addr, jobsOpts{alloc: "fair-share"},
			2*time.Second, obsOpts{}, durableOpts{}, sig, 10*time.Second)
	}()

	workerDone := make(chan error, 1)
	go func() {
		dial := func() (transport.Conn, error) {
			return transport.DialRetry(addr, 50, 20*time.Millisecond)
		}
		_, err := jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
		workerDone <- err
	}()

	// Give the worker time to register, then pull the plug.
	time.Sleep(200 * time.Millisecond)
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runJobs returned %v, want clean exit", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("runJobs did not exit after SIGTERM")
	}
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("pool worker did not exit after the manager drained")
	}
}

// TestSessionModeSignalBeforeWorkers interrupts a server still waiting
// for its initial workers; it must exit 0 instead of hanging in Accept.
func TestSessionModeSignalBeforeWorkers(t *testing.T) {
	addr := freeAddr(t)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(addr, 4, 4, 0, elasticOpts{}, obsOpts{}, durableOpts{}, sig, time.Second, transport.CompressExact)
	}()
	// Wait until the listener is up so the signal lands mid-wait.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started listening")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sig <- syscall.SIGINT
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want clean exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGINT")
	}
}

// TestServerDurableSessionResume: a felaserver on -durable-dir survives
// restarts. Phase 1 trains a 4-iteration session to completion, leaving
// a ledger and checkpoints behind. Phase 2 reopens the same directory
// for a longer 8-iteration session: /healthz must serve 503 "restoring"
// until the workers reconnect, then the session resumes from the
// iteration-3 checkpoint and run() itself verifies the result is
// bit-identical to an uninterrupted sequential run. Phase 3 restarts
// once more — the final checkpoint already covers every iteration, so
// the server settles and verifies without waiting for any workers.
func TestServerDurableSessionResume(t *testing.T) {
	dir := t.TempDir()
	open := func() durableOpts {
		t.Helper()
		plane, err := openDurable(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		return durableOpts{plane: plane, every: 2}
	}

	// Phase 1: checkpointDue commits frames at iterations 1 and 3.
	du := open()
	addr := freeAddr(t)
	cfg4, _, _ := sessionConfig(2, 4, 0)
	var wg sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		startWorker(t, addr, wid, 2, 4, cfg4, &wg)
	}
	if err := run(addr, 2, 4, 0, elasticOpts{}, obsOpts{}, du, nil, 0, transport.CompressExact); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	wg.Wait()
	if err := du.plane.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: same directory, longer session — resume from iteration 3.
	du = open()
	if got := len(du.plane.Entries); got == 0 {
		t.Fatal("phase 2: replayed ledger is empty")
	}
	addr = freeAddr(t)
	statusAddr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- run(addr, 2, 8, 0, elasticOpts{}, obsOpts{statusAddr: statusAddr}, du, nil, 0, transport.CompressExact)
	}()

	// Before any worker reconnects the health gate must hold: 503 with
	// "restoring" in the body. Any other response once the obs server is
	// up is a bug (restoring is set before the listener opens).
	deadline := time.Now().Add(5 * time.Second)
	sawRestoring := false
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + statusAddr + "/healthz")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "restoring") {
			t.Fatalf("healthz before rejoin: status %d body %q, want 503 restoring", resp.StatusCode, body)
		}
		sawRestoring = true
		break
	}
	if !sawRestoring {
		t.Fatal("healthz never answered before the rejoin window closed")
	}

	cfg8, _, _ := sessionConfig(2, 8, 0)
	var wg2 sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		startWorker(t, addr, wid, 2, 8, cfg8, &wg2)
	}
	// run() returns an error if the resumed result diverges from the
	// sequential reference, so a nil here is the bit-identity proof.
	if err := <-done; err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	wg2.Wait()
	if err := du.plane.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: the covering checkpoint settles the session workerless.
	du = open()
	defer du.plane.Close()
	var joins, barriers, lastBarrier int
	for _, e := range du.plane.Entries {
		switch e.Op {
		case durable.OpJoin:
			joins++
		case durable.OpBarrier:
			barriers++
			lastBarrier = e.Iter
		}
	}
	if joins != 4 || barriers < 3 || lastBarrier != 7 {
		t.Fatalf("ledger history: joins=%d barriers=%d last=%d, want 4 joins, >=3 barriers ending at 7",
			joins, barriers, lastBarrier)
	}
	if err := run(freeAddr(t), 2, 8, 0, elasticOpts{}, obsOpts{}, du, nil, 0, transport.CompressExact); err != nil {
		t.Fatalf("phase 3: %v", err)
	}
}
