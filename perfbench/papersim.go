package main

// The simulator workload: the paper's straggler experiments (Fig. 9/10)
// through the public API — fela.Tune, then fela.Simulate under a set of
// scenarios, for VGG19 and GoogLeNet — swept repeatedly for the window.
// It is the only workload that runs the scheduler, felaengine, sim,
// netsim, gpu and tuning packages.

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"fela"
	"fela/internal/obs"
	"fela/internal/scheduler"
	"fela/internal/straggler"
)

// simIterations is the paper's run length per data point.
const simIterations = 100

var paperSim = workloadDef{
	name: "paper-sim",
	meaning: map[string]string{
		"throughput_per_s": "simulated iterations per wall second of a whole sweep, tuning included, median over the sweeps (sim_iters_per_s)",
		"latency_ms_p50":   "wall time of one fela.Simulate call (100 simulated iterations), median",
		"latency_ms_p90":   "the same, 90th percentile",
		"peak_heap_mb":     "peak live heap (bytes the collector marked live) during the measured window",
		"setup_s":          "model zoo construction and offline partitioning of both models; median of several set-ups",
	},
	prepare: func(seed int64, work string) (runner, error) {
		return &simRunner{plan: newSimPlan(seed)}, nil
	},
}

// simCase is one simulated data point.
type simCase struct {
	model    string
	scenario fela.Scenario
}

// simPlan is everything --seed decides. Every seed sweeps the paper's
// full straggler grids at its straggler-experiment batch, so seeds vary
// the inputs — which workers the probability scenarios slow, and the
// order of the cases — and not the amount of work.
type simPlan struct {
	batch int
	cases []simCase
}

func newSimPlan(seed int64) simPlan {
	rng := rand.New(rand.NewSource(seed))
	p := simPlan{batch: 256}
	for _, m := range []string{"VGG19", "GoogLeNet"} {
		delays := []float64{2, 4, 6, 8, 10} // Fig. 9, VGG19
		probDelay := 6.0                    // Fig. 10 injected delay
		if m == "GoogLeNet" {
			delays = []float64{1, 2, 3, 4, 5}
			probDelay = 3
		}
		cases := []simCase{{model: m, scenario: fela.NoStraggler()}}
		for _, d := range delays {
			cases = append(cases, simCase{model: m, scenario: fela.RoundRobinStraggler(d, 8)})
		}
		for _, pr := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			cases = append(cases, simCase{model: m,
				scenario: straggler.Probability{P: pr, D: probDelay, Seed: uint64(rng.Int63())}})
		}
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		p.cases = append(p.cases, cases...)
	}
	return p
}

// simOutcome is what must repeat exactly across sweeps.
type simOutcome struct {
	weights []int
	subset  int
	runs    []fela.RunResult
}

type simRunner struct {
	plan  simPlan
	first *simOutcome
}

// sweep runs the plan once. reg, when set, receives Token Server
// telemetry. It returns the outcome plus per-call and per-tune timings.
func (s *simRunner) sweep(reg *obs.Registry) (out simOutcome, callMs, tuneMs []float64, err error) {
	models := map[string]*fela.Model{}
	tuned := map[string]*fela.TuningResult{}
	for _, c := range s.plan.cases {
		m := models[c.model]
		if m == nil {
			if m, err = fela.ModelByName(c.model); err != nil {
				return out, nil, nil, err
			}
			models[c.model] = m
			t0 := time.Now()
			tr, err := fela.Tune(m, s.plan.batch)
			if err != nil {
				return out, nil, nil, fmt.Errorf("tune %s: %w", c.model, err)
			}
			tuneMs = append(tuneMs, float64(time.Since(t0))/1e6)
			tuned[c.model] = tr
			out.weights = append(out.weights, tr.BestWeights...)
			out.subset += tr.BestSubset
		}
		tr := tuned[c.model]
		t0 := time.Now()
		res, err := fela.Simulate(fela.SimConfig{
			Model: m, TotalBatch: s.plan.batch, Iterations: simIterations,
			Weights: tr.BestWeights, SubsetSize: tr.BestSubset,
			Scenario: c.scenario, Metrics: reg,
		})
		if err != nil {
			return out, nil, nil, fmt.Errorf("simulate %s %s: %w", c.model, c.scenario.Name(), err)
		}
		callMs = append(callMs, float64(time.Since(t0))/1e6)
		out.runs = append(out.runs, res)
	}
	return out, callMs, tuneMs, nil
}

// simSetupsPerSweep is how many set-ups an untraced run measures after
// each measured sweep; the median of all of them is setup_s. One set-up
// takes 40-75 µs depending on the moment it runs, so the set-ups are
// spread over the whole window: the median of one burst of 500 before
// the window swung by a third from run to run.
const simSetupsPerSweep = 20

// setUp builds both models from the zoo and partitions them offline,
// returning how long that took.
func setUp() (float64, error) {
	t0 := time.Now()
	for _, name := range []string{"VGG19", "GoogLeNet"} {
		m, err := fela.ModelByName(name)
		if err != nil {
			return 0, err
		}
		fela.Partition(m)
	}
	return time.Since(t0).Seconds(), nil
}

func (s *simRunner) measure(window time.Duration, traced bool, r *report) (float64, error) {
	if s.first == nil {
		// The first sweep warms the simulator and is the outcome every
		// measured sweep must reproduce.
		out, _, _, err := s.sweep(nil)
		if err != nil {
			return 0, err
		}
		s.first = &out
		r.op("sweep", true)
	}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	var callMs, tuneMs, sweepRates, setups []float64
	sweeps := 0
	heap := startHeapPeak()
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if sweeps > 0 && elapsed >= window && (len(callMs) >= minSamplesFor(0.9) || elapsed >= maxWindowFactor*window) {
			break
		}
		t0 := time.Now()
		out, calls, tunes, err := s.sweep(reg)
		if err != nil {
			heap.Stop()
			return 0, err
		}
		sweepRates = append(sweepRates, float64(len(s.plan.cases)*simIterations)/time.Since(t0).Seconds())
		sweeps++
		callMs = append(callMs, calls...)
		tuneMs = append(tuneMs, tunes...)
		if !reflect.DeepEqual(*s.first, out) {
			r.violate("sweep", "sweep %d differs from the first: the simulator is not deterministic", sweeps)
		} else {
			r.op("sweep", true)
		}
		for i := 0; !traced && i < simSetupsPerSweep; i++ {
			d, err := setUp()
			if err != nil {
				heap.Stop()
				return 0, err
			}
			setups = append(setups, d)
		}
	}
	peak := heap.Stop()
	simIters := float64(sweeps * len(s.plan.cases) * simIterations)

	if !traced {
		r.setQ("throughput_per_s", sweepRates, 0.5)
		r.setQ("latency_ms_p50", callMs, 0.5)
		r.setQ("latency_ms_p90", callMs, 0.9)
		r.set("peak_heap_mb", value{V: peak})
		r.setQ("setup_s", setups, 0.5)
		return median(callMs), nil
	}
	r.setQ("tuning.tune_ms", tuneMs, 0.5)
	perIter := make([]float64, len(callMs))
	for i, c := range callMs {
		perIter[i] = c / simIterations
	}
	r.setQ("felaengine.sim_ms_per_iter", perIter, 0.5)
	requests := counterSum(reg, scheduler.MetricRequests)
	if requests > 0 {
		r.set("scheduler.slowpath_frac", value{V: counterSum(reg, scheduler.MetricSlowPath) / requests,
			Note: "fela_sched_slowpath_total / fela_sched_requests_total"})
	}
	r.set("scheduler.helped_per_iter", value{V: counterSum(reg, scheduler.MetricHelped) / simIters,
		Note: "fela_sched_helped_total per simulated iteration"})
	var samples float64
	for _, run := range s.first.runs {
		samples += float64(run.TotalBatch*run.Iterations) / run.TotalTime
	}
	r.set("sim.samples_per_s", value{V: samples / float64(len(s.first.runs)),
		Note: "modelled throughput, mean over the plan's cases (deterministic)"})
	r.na("the simulator models compute; no tensor kernels run", "tensor.matmul_gflops", "tensor.kernel_par_speedup",
		"tensor.parallel_call_frac", "tensor.kernel_wall_frac", "minidnn.conv_fwd_ms", "minidnn.conv_bwd_ms",
		"minidnn.dense_fwd_ms", "minidnn.dense_bwd_ms", "minidnn.token_ms")
	r.na("no live rt session, transport or checkpoint in this workload", "rt.worker.compute_ms", "rt.worker.install_ms",
		"rt.worker.wait_ms", "rt.worker.busy_frac", "transport.report_send_ms", "transport.broadcast_send_ms",
		"transport.bytes_per_iter", "transport.msgs_per_iter", "transport.encode_mb_s", "transport.decode_mb_s",
		"rt.coord.pick_us", "rt.coord.barrier_ms", "rt.coord.report_spread_ms", "rt.steals_per_iter",
		"rt.token_imbalance", "rt.iter_residual_frac", "rt.seq_tokens_per_s", "durable.checkpoint_ms",
		"durable.checkpoint_mb", "durable.stall_frac")
	r.na("no job manager or gateway in this workload", "jobs.submit_us", "jobs.queue_wait_ms", "jobs.runtime_ms",
		"jobs.queue_depth_max", "jobs.dials_per_job", "jobs.assign_rtt_us", "gate.submit_hold_ms",
		"gate.status_handler_us", "gate.refused_frac", "gate.submit_ms_p50", "gate.submit_ms_p99",
		"gate.settle_ms_p99", "gate.status_ms_p50", "gate.status_ms_p99")
	r.na("closed-loop sweeps: no request generator", "bench.gen_late_ms_p99", "bench.client_queue_ms_p99")
	return median(callMs), nil
}

func counterSum(reg *obs.Registry, name string) float64 {
	var s int64
	for _, v := range reg.CounterValues(name) {
		s += v
	}
	return float64(s)
}
