package main

// Per-layer metrics shared by the workloads that run live training:
// direct kernel calls, the wrapped minidnn layers, and what the Conn
// taps saw.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fela/internal/minidnn"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// kernelMetrics reports the tensor layer: direct MatMul/AT/BT calls at
// net's dense token shapes, and the process-wide kernel counters diffed
// over a window of the given wall time.
func kernelMetrics(r *report, net *minidnn.Network, batch int, kb, ka tensor.KernelStats, wall time.Duration) {
	gflops, speedup := denseKernels(net, batch)
	r.set("tensor.matmul_gflops", value{V: gflops, Note: fmt.Sprintf("MatMul/AT/BT at the dense layers' %d-row token shapes, default fan-out", batch)})
	r.set("tensor.kernel_par_speedup", value{V: speedup, Note: fmt.Sprintf("serial vs fan-out %d (about 1 below the parallel cutoff)", tensor.Parallelism())})
	calls := float64((ka.ParallelCalls - kb.ParallelCalls) + (ka.SerialCalls - kb.SerialCalls))
	if calls > 0 {
		r.set("tensor.parallel_call_frac", value{V: float64(ka.ParallelCalls-kb.ParallelCalls) / calls})
	}
	r.set("tensor.kernel_wall_frac", value{V: float64(ka.WallNanos-kb.WallNanos) / float64(wall.Nanoseconds()),
		Note: "parallel-kernel wall time summed over concurrent callers / window wall"})
}

// tokenMetrics reports the minidnn layer: per-token layer times from
// wrapped networks.
func tokenMetrics(r *report, logs []*layerLog) {
	var convF, convB, denseF, denseB, total []float64
	for _, ll := range logs {
		for _, tk := range ll.tokens {
			convF = append(convF, tk.convF)
			convB = append(convB, tk.convB)
			denseF = append(denseF, tk.denseF)
			denseB = append(denseB, tk.denseB)
			total = append(total, tk.total)
		}
	}
	if len(logs) > 0 && logs[0].hasConv {
		r.setQ("minidnn.conv_fwd_ms", convF, 0.5)
		r.setQ("minidnn.conv_bwd_ms", convB, 0.5)
	} else {
		r.na("the model has no conv layer", "minidnn.conv_fwd_ms", "minidnn.conv_bwd_ms")
	}
	r.setQ("minidnn.dense_fwd_ms", denseF, 0.5)
	r.setQ("minidnn.dense_bwd_ms", denseB, 0.5)
	r.setQ("minidnn.token_ms", total, 0.5)
}

// tapMetrics reports what the Conn taps saw over iters iterations: the
// rt worker parts per worker-iteration, the transport traffic, and the
// coordinator's pick latency.
func tapMetrics(r *report, log *tapLog, iters int) {
	log.mu.Lock()
	var compute, install, wait []float64
	var busy, span float64
	for _, w := range log.iters {
		compute = append(compute, w.compute)
		install = append(install, w.install)
		wait = append(wait, w.wait)
		busy += w.busy()
		span += w.closeAt - w.recvAt
	}
	reportSend := append([]float64(nil), log.reportSend...)
	bcast := append([]float64(nil), log.bcastSend...)
	picks := append([]float64(nil), log.picks...)
	msgs, bytes, rep := log.msgs, log.bytes, log.report
	log.mu.Unlock()

	r.setQ("rt.worker.compute_ms", compute, 0.5)
	r.setQ("rt.worker.install_ms", install, 0.5)
	r.setQ("rt.worker.wait_ms", wait, 0.5)
	if span > 0 {
		r.set("rt.worker.busy_frac", value{V: busy / span, N: len(compute)})
	}
	r.setQ("transport.report_send_ms", reportSend, 0.5)
	r.setQ("transport.broadcast_send_ms", bcast, 0.5)
	if iters > 0 {
		r.set("transport.bytes_per_iter", value{V: float64(bytes) / float64(iters), Note: "Message.WireSize, computed from tensor sizes"})
		r.set("transport.msgs_per_iter", value{V: float64(msgs) / float64(iters), Note: "coordinator side, both directions"})
	}
	if rep != nil {
		enc, dec := codecRates(rep)
		r.set("transport.encode_mb_s", value{V: enc, Note: "EncodeBinaryPooled on a report captured from the run"})
		r.set("transport.decode_mb_s", value{V: dec, Note: "DecodeBinary on the same frame"})
	}
	r.setQ("rt.coord.pick_us", picks, 0.5)
}

// denseKernels times the three matmuls each dense layer issues per token
// (MatMul forward, MatMulAT weight gradient, MatMulBT input gradient)
// at batch rows, serial and at the default fan-out. It returns the
// default fan-out's GFLOP/s and the serial/default time ratio.
func denseKernels(net *minidnn.Network, batch int) (gflops, speedup float64) {
	rng := rand.New(rand.NewSource(7))
	type shape struct{ x, w, g *tensor.Tensor }
	var shapes []shape
	var flops float64
	for _, l := range net.Layers {
		d, ok := l.(*minidnn.Dense)
		if !ok {
			continue
		}
		in, out := d.W.Shape[0], d.W.Shape[1]
		shapes = append(shapes, shape{
			x: tensor.New(batch, in).Randn(rng, 1),
			w: tensor.New(in, out).Randn(rng, 1),
			g: tensor.New(batch, out).Randn(rng, 1),
		})
		flops += 3 * 2 * float64(batch*in*out)
	}
	pass := func() {
		for _, s := range shapes {
			tensor.MatMul(s.x, s.w)
			tensor.MatMulAT(s.x, s.g)
			tensor.MatMulBT(s.g, s.w)
		}
	}
	timeIt := func() float64 {
		pass() // warm
		var ts []float64
		for rep := 0; rep < 7; rep++ {
			t0 := time.Now()
			for i := 0; i < 5; i++ {
				pass()
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/5)
		}
		return median(ts)
	}
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	serial := timeIt()
	tensor.SetParallelism(0)
	par := timeIt()
	runtime.GC()
	return flops / par, serial / par
}

// codecRates encodes and decodes a captured report frame repeatedly and
// returns MB/s for each direction.
func codecRates(m *transport.Message) (enc, dec float64) {
	frame, err := transport.EncodeBinary(m)
	if err != nil {
		return 0, 0
	}
	mb := float64(len(frame)) / (1 << 20)
	reps := 1 + int(64/(mb+0.01)) // about 64 MB of traffic per direction
	var encT, decT []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		buf, err := transport.EncodeBinaryPooled(m)
		encT = append(encT, time.Since(t0).Seconds())
		if err != nil {
			return 0, 0
		}
		transport.ReleaseFrame(buf)
		t0 = time.Now()
		d, err := transport.DecodeBinary(frame)
		decT = append(decT, time.Since(t0).Seconds())
		if err != nil {
			return 0, 0
		}
		d.Release()
	}
	return mb / median(encT), mb / median(decT)
}
