package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fela/internal/jobs"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/transport"
)

// fakeConn records which optional-interface methods reached it.
type fakeConn struct {
	sends, broadcasts int
	timeouts          [2]time.Duration
	metrics           *obs.Registry
}

func (f *fakeConn) Send(*transport.Message) error            { f.sends++; return nil }
func (f *fakeConn) Recv() (*transport.Message, error)        { return nil, transport.ErrClosed }
func (f *fakeConn) Close() error                             { return nil }
func (f *fakeConn) SetTimeouts(send, recv time.Duration)     { f.timeouts = [2]time.Duration{send, recv} }
func (f *fakeConn) SendBroadcast(*transport.Broadcast) error { f.broadcasts++; return nil }
func (f *fakeConn) SetMetrics(reg *obs.Registry)             { f.metrics = reg }

func TestConnTapsForwardOptionalInterfaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(transport.Conn) transport.Conn
	}{
		{"worker", func(c transport.Conn) transport.Conn { return newWorkerTap(c, newTapLog(), 0, false) }},
		{"worker-clock", func(c transport.Conn) transport.Conn { return newWorkerTap(c, nil, 0, true) }},
		{"coord", func(c transport.Conn) transport.Conn { return newCoordTap(c, newTapLog(), false) }},
		{"coord-picks", func(c transport.Conn) transport.Conn { return newCoordTap(c, newTapLog(), true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := &fakeConn{}
			c := tc.wrap(inner)
			if !transport.SetTimeouts(c, time.Second, 2*time.Second) || inner.timeouts != [2]time.Duration{time.Second, 2 * time.Second} {
				t.Errorf("SetTimeouts not forwarded: %v", inner.timeouts)
			}
			reg := obs.NewRegistry()
			if !transport.SetConnMetrics(c, reg) || inner.metrics != reg {
				t.Error("SetMetrics not forwarded")
			}
			b := transport.NewBroadcast(&transport.Message{Kind: transport.KindIterStart})
			if err := transport.SendBroadcast(c, b); err != nil {
				t.Fatal(err)
			}
			if inner.broadcasts != 1 || inner.sends != 0 {
				t.Errorf("SendBroadcast fell back to Send: broadcasts=%d sends=%d", inner.broadcasts, inner.sends)
			}
		})
	}
}

// TestCoordTapKeepsEncodeOnce broadcasts one parameter frame over two
// tapped TCP connections and checks the codec encoded it once: the
// cached-frame path survives the wrapper.
func TestCoordTapKeepsEncodeOnce(t *testing.T) {
	l, err := transport.ListenCodec("127.0.0.1:0", transport.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	log := newTapLog()
	var clients, servers []transport.Conn
	for i := 0; i < 2; i++ {
		c, err := transport.DialCodec(l.Addr(), transport.CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tap := newCoordTap(s, log, false)
		transport.SetConnMetrics(tap, reg)
		clients, servers = append(clients, c), append(servers, tap)
	}
	b := transport.NewBroadcast(&transport.Message{Kind: transport.KindIterStart, Iter: 3,
		Params: [][]float32{make([]float32, 1<<12)}})
	for _, s := range servers {
		if err := transport.SendBroadcast(s, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		m, err := c.Recv()
		if err != nil || m.Kind != transport.KindIterStart || m.Iter != 3 {
			t.Fatalf("recv %v %v", m, err)
		}
	}
	var encodes int64
	for labels, v := range reg.CounterValues(transport.MetricCodecOps) {
		if strings.Contains(labels, "encode") && strings.Contains(labels, "iter-start") {
			encodes += v
		}
	}
	if encodes != 1 {
		t.Errorf("iter-start encoded %d times for two connections, want 1", encodes)
	}
	if _, ok := log.iterStart[[2]int{0, 3}]; len(log.bcastSend) != 2 || !ok {
		t.Errorf("broadcasts not recorded: %d sends, starts %v", len(log.bcastSend), log.iterStart)
	}
}

// TestWorkerTapSplitsIteration drives one iteration's protocol through
// a tapped worker end and checks the parts it records.
func TestWorkerTapSplitsIteration(t *testing.T) {
	coord, worker := transport.Pair()
	log := newTapLog()
	w := newWorkerTap(worker, log, 1, false)
	script := []*transport.Message{
		{Kind: transport.KindIterStart, Iter: 0},
		{Kind: transport.KindAssign},
		{Kind: transport.KindShutdown},
	}
	go func() {
		for _, m := range script {
			coord.Send(m)
		}
	}()
	mustRecv := func(k transport.Kind) {
		t.Helper()
		m, err := w.Recv()
		if err != nil || m.Kind != k {
			t.Fatalf("recv %v, %v; want %v", m, err, k)
		}
	}
	mustRecv(transport.KindIterStart)
	w.Send(&transport.Message{Kind: transport.KindRequest})
	mustRecv(transport.KindAssign)
	report := &transport.Message{Kind: transport.KindReport, Grads: [][]float32{{1, 2}}}
	w.Send(report)
	w.Send(&transport.Message{Kind: transport.KindRequest})
	mustRecv(transport.KindShutdown)

	if len(log.iters) != 1 {
		t.Fatalf("%d iterations recorded, want 1", len(log.iters))
	}
	it := log.iters[0]
	if it.wid != 1 || it.iter != 0 || it.tokens != 1 {
		t.Errorf("iteration %+v", it)
	}
	if it.parts() > it.closeAt-it.recvAt {
		t.Errorf("parts %.3f ms exceed the iteration's %.3f ms", it.parts(), it.closeAt-it.recvAt)
	}
	if len(log.assignRTT) != 1 || len(log.reportSend) != 1 || log.report != report {
		t.Errorf("assign rtts %d, report sends %d, captured %v", len(log.assignRTT), len(log.reportSend), log.report == report)
	}
}

type fakeShard struct {
	canceled []int
	status   *jobs.PoolStatus
	results  chan jobs.JobResult
}

func (f *fakeShard) SubmitJob(spec transport.JobSpec, _ jobs.SubmitOptions) (int, <-chan jobs.JobResult, error) {
	return 7, f.results, nil
}
func (f *fakeShard) Cancel(id int)            { f.canceled = append(f.canceled, id) }
func (f *fakeShard) Status() *jobs.PoolStatus { return f.status }

func TestShardTapForwardsAndRelays(t *testing.T) {
	inner := &fakeShard{status: &jobs.PoolStatus{Queued: 3}, results: make(chan jobs.JobResult, 1)}
	settled := make(chan string, 1)
	tap := newShardTap(inner, true, func(name string, res jobs.JobResult, _ time.Time) { settled <- name })
	tap.Cancel(4)
	if !reflect.DeepEqual(inner.canceled, []int{4}) {
		t.Errorf("Cancel not forwarded: %v", inner.canceled)
	}
	if tap.Status() != inner.status {
		t.Error("Status not forwarded")
	}
	id, ch, err := tap.SubmitJob(transport.JobSpec{Name: "a"}, jobs.SubmitOptions{})
	if err != nil || id != 7 {
		t.Fatalf("SubmitJob = %d, %v", id, err)
	}
	inner.results <- jobs.JobResult{ID: 7}
	if res := <-ch; res.ID != 7 {
		t.Errorf("relayed result %+v", res)
	}
	if name := <-settled; name != "a" {
		t.Errorf("settled %q", name)
	}
	if _, ok := tap.submitAt["a"]; !ok || len(tap.submits) != 1 {
		t.Error("SubmitJob not timed")
	}
}

// TestLayerTapKeepsArithmetic checks wrapped layers compute the same
// gradients as the bare network and record one token per Loss call.
func TestLayerTapKeepsArithmetic(t *testing.T) {
	ds := minidnn.SyntheticImages(3, 8, 3, 8, 8, 4)
	bare := minidnn.NewCNN(5, 3, 8, 8, 4, 16, 4)
	tapped := minidnn.NewCNN(5, 3, 8, 8, 4, 16, 4)
	log := tapLayers(tapped)
	x, labels := ds.Batch(0, 8)
	if a, b := bare.Loss(x, labels), tapped.Loss(x, labels); a != b {
		t.Errorf("loss %v != %v", a, b)
	}
	if !minidnn.ParamsEqual(bare.Grads(), tapped.Grads()) {
		t.Error("tapped layers changed the gradients")
	}
	if len(log.tokens) != 1 {
		t.Fatalf("%d tokens recorded, want 1", len(log.tokens))
	}
	tk := log.tokens[0]
	if tk.convF <= 0 || tk.denseB <= 0 || tk.total < tk.convF+tk.convB+tk.denseF+tk.denseB {
		t.Errorf("token times %+v", tk)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		n      int
		q      float64
		v      float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{4, 0.5, 2, 2, true},
		{1, 0.5, 1, 0, true},
	} {
		v, beyond, ok := quantile(xs(tc.n), tc.q)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("quantile(n=%d, q=%g) = %v, %d, %v; want %v, %d, %v", tc.n, tc.q, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.99); got != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", got)
	}
	r := newReport()
	r.setQ("m", xs(50), 0.9)
	if v := r.metrics["m"]; v.N != 50 || v.Beyond != 5 || !strings.HasPrefix(v.Note, "unsupported") {
		t.Errorf("unsupported tail reported as %+v", v)
	}
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	if newTrainInputs(4) != newTrainInputs(4) || newTrainInputs(4) == newTrainInputs(5) {
		t.Error("training inputs are not a function of the seed alone")
	}
	a, b, c := gateSchedule(4, 1, 3*time.Second), gateSchedule(4, 1, 3*time.Second), gateSchedule(5, 1, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different gate schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same gate schedule")
	}
	submits, long := 0, 0
	for _, x := range a {
		if x.submit {
			submits++
			if x.req.Iterations == gateLongIters {
				long++
			}
		}
	}
	if want := int(gateJobRate * 3); submits != want || long != want/gateLongEvery {
		t.Errorf("%d submits (%d long), want %d", submits, long, want)
	}
	name := func(p simPlan) string {
		var s []string
		for _, c := range p.cases {
			s = append(s, c.model+" "+c.scenario.Name())
		}
		return strings.Join(s, "; ")
	}
	if name(newSimPlan(4)) != name(newSimPlan(4)) || name(newSimPlan(4)) == name(newSimPlan(5)) {
		t.Error("simulator plan is not a function of the seed alone")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ", ") != workloadNames() {
		t.Errorf("workloads %v, command has %s", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics in BENCHMARK.json, %d/%d in the command",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, m, want)
		}
	}
	for i, m := range spec.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, m, want)
		}
	}
}

// TestResultLine runs the fastest workload both ways and checks the
// last line is the result object with every metric of the run's kind.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator workload")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"--workload", "paper-sim", "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		if len(keys) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("result keys %v", keys)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", trace, m.Name, got.Unit)
			}
		}
		if string(res["correct"]) != "true" {
			t.Errorf("trace %s: incorrect run: %s", trace, errb.String())
		}
	}
}

// TestBreakdownKeepsSessionsApart reconciles two back-to-back sessions
// that reuse iteration numbers.
func TestBreakdownKeepsSessionsApart(t *testing.T) {
	l := newTapLog()
	for s, base := range []float64{0, 1000} {
		session := s + 1
		l.iterStart[[2]int{session, 0}] = base
		l.iterStart[[2]int{session, 1}] = base + 100
		l.lastReport[[2]int{session, 0}] = map[int]float64{0: base + 70, 1: base + 90}
		l.iters = append(l.iters,
			workerIter{session: session, wid: 1, iter: 0, install: 1, wait: 2, compute: 80, send: 1},
			workerIter{session: session, wid: 0, iter: 0, install: 1, wait: 2, compute: 60, send: 1})
	}
	got := l.breakdown()
	if len(got) != 2 {
		t.Fatalf("%d iterations reconciled, want 2", len(got))
	}
	for _, b := range got {
		want := iterBreakdown{wall: 100, barrier: 10, parts: 84, spread: 20, residual: 6}
		if b != want {
			t.Errorf("breakdown %+v, want %+v", b, want)
		}
	}
}
