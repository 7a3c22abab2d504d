package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fela/internal/gate"
	"fela/internal/jobs"
	"fela/internal/obs"
	"fela/internal/transport"
)

// startCluster boots the felagate wiring in-process: two job-manager
// shards sharing one registry/tracer/flight ring behind a gateway, a
// pool listener dealing workers round-robin, and the obs telemetry
// endpoint felastat scrapes. It returns the gateway's HTTP base URL
// and the telemetry address.
func startCluster(t *testing.T, poolWorkers int) (base, statusAddr string) {
	t.Helper()
	reg := obs.NewRegistry()
	spans := obs.NewTracer("felagate")
	flight := obs.NewFlightRecorder(1 << 10)

	pol, ok := jobs.PolicyByName("fair-share")
	if !ok {
		t.Fatal("fair-share policy missing")
	}
	mgrs := make([]*jobs.Manager, 2)
	backends := make([]gate.Shard, 2)
	for i := range mgrs {
		mgrs[i] = jobs.NewManager(jobs.Config{Policy: pol, Metrics: reg, Spans: spans, Flight: flight})
		backends[i] = mgrs[i]
	}
	t.Cleanup(func() {
		for _, m := range mgrs {
			m.Stop()
		}
		for _, m := range mgrs {
			select {
			case <-m.Done():
			case <-time.After(10 * time.Second):
				t.Error("manager did not drain")
			}
		}
	})

	poolL, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { poolL.Close() })
	go func() {
		for i := 0; ; i++ {
			c, err := poolL.Accept()
			if err != nil {
				return
			}
			mgrs[i%len(mgrs)].Admit(c)
		}
	}()
	for i := 0; i < poolWorkers; i++ {
		go func() {
			dial := func() (transport.Conn, error) {
				return transport.DialRetry(poolL.Addr(), 50, 20*time.Millisecond)
			}
			_, _ = jobs.RunPoolWorker(dial, jobs.PoolWorkerOptions{})
		}()
	}

	gw, err := gate.New(gate.Config{Shards: backends, Metrics: reg, Spans: spans, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)

	statusAddr, stopObs, err := obs.Serve("127.0.0.1:0", obs.NewHandler(obs.HandlerOptions{
		Registry: reg,
		Status:   gw.StatusAny,
		Health:   func() error { return nil },
		Tracers:  []*obs.Tracer{spans},
		Flight:   flight,
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopObs)
	return srv.URL, statusAddr
}

// submitAndWait pushes one job through the gateway and polls it to
// completion.
func submitAndWait(t *testing.T, base, tenant, body string) {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("X-Fela-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var ack struct {
		Job string `json:"job"`
		ID  string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit code %d", resp.StatusCode)
	}
	id := ack.Job
	if id == "" {
		id = ack.ID
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id, nil)
		req.Header.Set("X-Fela-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		var jv struct {
			State string `json:"state"`
		}
		json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if jv.State == "done" {
			return
		}
		if jv.State == "failed" || jv.State == "rejected" {
			t.Fatalf("job ended %q", jv.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jv.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitShardsSettled polls the gateway's /statusz until the shard views
// report every pool worker back idle and all jobs completed — the
// managers publish their snapshots on a throttled tick, so a scrape
// taken right at settlement can trail the final state.
func waitShardsSettled(t *testing.T, statusAddr string, workers, completed int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st gate.Status
		resp, err := http.Get("http://" + statusAddr + "/statusz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err == nil {
			w, c := 0, 0
			for _, sv := range st.Shards {
				w += sv.Workers
				c += sv.Completed
			}
			if w == workers && c == completed {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard views never settled to %d workers / %d completed: %+v",
				workers, completed, st.Shards)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFelastatLiveTwoShardCluster is the acceptance run: felastat -json
// against a live two-shard gateway reports per-tenant burn rate,
// per-shard queue depth, and a straggler heatmap in one scrape — and
// the scraped /metrics body passes the exposition lint.
func TestFelastatLiveTwoShardCluster(t *testing.T) {
	base, statusAddr := startCluster(t, 4)

	submitAndWait(t, base, "alice",
		`{"name": "stat-a", "iterations": 4, "total_batch": 32, "token_batch": 8}`)
	submitAndWait(t, base, "bob",
		`{"name": "stat-b", "iterations": 4, "total_batch": 32, "token_batch": 8}`)
	waitShardsSettled(t, statusAddr, 4, 2)

	var buf bytes.Buffer
	if err := run(statOpts{
		targets: statusAddr, jsonOut: true, flightN: 64, timeout: 5 * time.Second,
	}, &buf); err != nil {
		t.Fatalf("felastat -json: %v", err)
	}
	var view ClusterView
	if err := json.Unmarshal(buf.Bytes(), &view); err != nil {
		t.Fatalf("decode felastat output: %v\n%s", err, buf.String())
	}

	if len(view.Targets) != 1 {
		t.Fatalf("targets = %d, want 1", len(view.Targets))
	}
	tv := view.Targets[0]
	if tv.Role != "gateway" || !tv.Healthy || tv.Error != "" {
		t.Errorf("target = %+v, want healthy gateway with no error", tv)
	}
	// The exemplar-bearing /metrics body must pass the exposition lint.
	if len(tv.LintErrors) != 0 {
		t.Errorf("exposition lint findings: %v", tv.LintErrors)
	}

	// Per-tenant burn rates for both tenants, in one scrape.
	tenants := map[string]TenantBurn{}
	for _, tb := range view.Tenants {
		tenants[tb.Tenant] = tb
	}
	for _, name := range []string{"alice", "bob"} {
		tb, ok := tenants[name]
		if !ok {
			t.Fatalf("tenant %q missing from view (have %v)", name, view.Tenants)
		}
		if tb.Admitted < 1 {
			t.Errorf("tenant %q admitted = %d, want >= 1", name, tb.Admitted)
		}
		// Both jobs settled inside their (absent) SLO, so the budget is
		// intact: burn must be exactly 0, proving the windows observed
		// the settlements.
		if tb.Burn5m != 0 || tb.Burn1h != 0 {
			t.Errorf("tenant %q burn = %v/%v, want 0/0", name, tb.Burn5m, tb.Burn1h)
		}
	}

	// Both shards report queue depth and their admission ledger.
	if len(view.Shards) != 2 {
		t.Fatalf("shards = %d, want 2 (%+v)", len(view.Shards), view.Shards)
	}
	workers, completed := 0, 0
	for _, s := range view.Shards {
		if s.Shard != 0 && s.Shard != 1 {
			t.Errorf("unexpected shard index %d", s.Shard)
		}
		if s.Queued != 0 {
			t.Errorf("shard %d queued = %d after both jobs settled, want 0", s.Shard, s.Queued)
		}
		workers += s.Workers
		completed += s.Completed
	}
	if workers != 4 {
		t.Errorf("pool workers across shards = %d, want 4", workers)
	}
	if completed != 2 {
		t.Errorf("completed across shards = %d, want 2", completed)
	}

	// The straggler heatmap: every trained worker has a score and a
	// heat cell, and at least one worker is the fastest (blank cell).
	if len(view.Workers) == 0 {
		t.Fatal("no straggler heatmap entries")
	}
	fastest := false
	for _, wh := range view.Workers {
		if wh.Heat == "" {
			t.Errorf("worker %d has no heat cell", wh.Worker)
		}
		if wh.Score == 0 {
			fastest = true
		}
	}
	if !fastest {
		t.Errorf("no worker scored 0 (fastest): %+v", view.Workers)
	}

	// The flight tail carries the gateway protocol history.
	events := map[string]int{}
	for _, ev := range view.Flight {
		events[ev.Comp+"/"+ev.Event]++
	}
	if events["gate/submit"] < 2 || events["gate/settle"] < 2 {
		t.Errorf("flight tail missing gate events: %v", events)
	}
}

// TestFelastatTextRender drives the human-readable one-shot path
// against the same live cluster.
func TestFelastatTextRender(t *testing.T) {
	base, statusAddr := startCluster(t, 2)
	submitAndWait(t, base, "carol",
		`{"name": "stat-c", "iterations": 3, "total_batch": 16, "token_batch": 8}`)

	var buf bytes.Buffer
	if err := run(statOpts{targets: statusAddr, flightN: 8, timeout: 5 * time.Second}, &buf); err != nil {
		t.Fatalf("felastat: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"TARGET", "gateway", "healthy", "TENANTS", "carol", "SHARDS", "WORKERS", "heatmap", "FLIGHT"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestFelastatNoTargets(t *testing.T) {
	if err := run(statOpts{}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty -targets accepted")
	}
}

// TestFelastatJobsCheckpointColumn: a durable job manager's per-job
// checkpoint posture (last committed iteration + its age) surfaces in
// both the JSON view and the rendered JOBS table.
func TestFelastatJobsCheckpointColumn(t *testing.T) {
	st := jobs.PoolStatus{
		Role: "jobmanager", Policy: "fair-share", Workers: 3, Running: 2,
		Jobs: []jobs.JobStatus{
			{ID: 1, Name: "durable-a", State: "running", Workers: 2,
				Iter: 17, Iterations: 40, CkptIter: 15, CkptAgeSeconds: 2.5},
			{ID: 2, Name: "fresh-b", State: "queued", Iter: -1, Iterations: 10, CkptIter: -1},
		},
	}
	statusAddr, stop, err := obs.Serve("127.0.0.1:0", obs.NewHandler(obs.HandlerOptions{
		Status: func() any { return st },
		Health: func() error { return nil },
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var buf bytes.Buffer
	if err := run(statOpts{targets: statusAddr, jsonOut: true, timeout: 5 * time.Second}, &buf); err != nil {
		t.Fatalf("felastat -json: %v", err)
	}
	var view ClusterView
	if err := json.Unmarshal(buf.Bytes(), &view); err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if len(view.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (%+v)", len(view.Jobs), view.Jobs)
	}
	if j := view.Jobs[0]; j.Job != 1 || j.CkptIter != 15 || j.CkptAgeSeconds != 2.5 {
		t.Errorf("job 1 row = %+v, want ckpt_iter 15 age 2.5", j)
	}
	if j := view.Jobs[1]; j.CkptIter != -1 || j.CkptAgeSeconds != 0 {
		t.Errorf("job 2 row = %+v, want no checkpoint", j)
	}

	buf.Reset()
	if err := run(statOpts{targets: statusAddr, timeout: 5 * time.Second}, &buf); err != nil {
		t.Fatalf("felastat: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"JOBS", "CKPT AGE", "durable-a", "2.5s", "fresh-b"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
