package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/rt"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// The wire benchmark measures the fast path the binary codec was built
// for: serializing VGG-scale parameter broadcasts. VGG-16 carries about
// 138M float32 parameters; the full run uses 1/8 of that (a 69 MB
// frame), quick mode 1/64.
const vggParams = 138_000_000

// wireCodecEntry is one per-kind binary codec microbenchmark: ns and
// heap bytes per encode and per decode of a representative frame.
type wireCodecEntry struct {
	Kind       string  `json:"kind"`
	Floats     int     `json:"floats"`
	FrameBytes int     `json:"frame_bytes"`
	EncodeNsOp float64 `json:"encode_ns_per_op"`
	EncodeBOp  float64 `json:"encode_bytes_per_op"`
	DecodeNsOp float64 `json:"decode_ns_per_op"`
	DecodeBOp  float64 `json:"decode_bytes_per_op"`
}

// wireSessionEntry is one end-to-end 4-worker TCP training session.
type wireSessionEntry struct {
	Workers      int     `json:"workers"`
	Iterations   int     `json:"iterations"`
	Seconds      float64 `json:"seconds"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	BitIdentical bool    `json:"bit_identical"`
}

// kernelBenchEntry is one matmul shape timed serial (fan-out 1) versus
// parallel (fan-out = GOMAXPROCS). Cores records the machine honestly:
// on a single-core container the speedup is ≈1 by construction and the
// multi-core claim is re-measured where GOMAXPROCS > 1 (CI).
type kernelBenchEntry struct {
	Shape        string  `json:"shape"`
	MACs         int64   `json:"macs"`
	Cores        int     `json:"cores"`
	SerialNsOp   float64 `json:"serial_ns_per_op"`
	ParallelNsOp float64 `json:"parallel_ns_per_op"`
	Speedup      float64 `json:"speedup"`
}

// compressSessionEntry is one (kernel mode × gradient codec) end-to-end
// TCP training session: wire cost of the report path plus the
// convergence price the lossy codec paid.
type compressSessionEntry struct {
	Compression string  `json:"compression"`
	Kernel      string  `json:"kernel"` // "serial" or "parallel"
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	Seconds     float64 `json:"seconds"`
	// ReportBytesPerIter is the decoded grads-section wire bytes per
	// iteration on the coordinator (all workers' reports summed).
	ReportBytesPerIter float64 `json:"report_bytes_per_iter"`
	// RatioVsExact is the exact codec's bytes-per-iter over this one's,
	// within the same kernel mode (1.0 for exact itself).
	RatioVsExact float64 `json:"ratio_vs_exact"`
	FinalLoss    float64 `json:"final_loss"`
	// LossDeltaVsExact is this session's final loss minus the same
	// kernel mode's exact session — the convergence price of quantizing.
	LossDeltaVsExact float64 `json:"loss_delta_vs_exact"`
	// BitIdentical only holds (and is only required) for exact.
	BitIdentical bool `json:"bit_identical"`
}

// wireSummary states the kernel and compression headlines.
type wireSummary struct {
	// Cores is GOMAXPROCS during the run; KernelSpeedup is serial over
	// parallel ns/op at the largest matmul shape (≈1 when Cores == 1).
	Cores         int     `json:"cores"`
	KernelSpeedup float64 `json:"kernel_speedup"`
	// Report-path byte ratios, exact over lossy, parallel-kernel rows.
	FP16ReportRatio float64 `json:"fp16_report_ratio"`
	Int8ReportRatio float64 `json:"int8_report_ratio"`
	TopKReportRatio float64 `json:"topk_report_ratio"`
}

// wireBenchReport is the machine-readable BENCH_wire.json payload.
type wireBenchReport struct {
	Name      string                 `json:"name"`
	Quick     bool                   `json:"quick"`
	TimeStamp string                 `json:"timestamp"`
	Codec     []wireCodecEntry       `json:"codec_micro"`
	Kernels   []kernelBenchEntry     `json:"kernel_micro"`
	Session   wireSessionEntry       `json:"session"`
	Compress  []compressSessionEntry `json:"compress_sessions"`
	Summary   wireSummary            `json:"summary"`
}

// wireIterStart builds the hot broadcast frame: n float32 parameters
// split into layer-sized tensors like a flattened deep CNN.
func wireIterStart(n int) *transport.Message {
	var chunks [][]float32
	for rem := n; rem > 0; {
		c := rem
		if c > 1<<20 {
			c = 1 << 20
		}
		s := make([]float32, c)
		for i := range s {
			s[i] = float32(i%113) * 0.25
		}
		chunks = append(chunks, s)
		rem -= c
	}
	return &transport.Message{Kind: transport.KindIterStart, Iter: 5, Params: chunks}
}

// wireMessages are the frames measured: the bulk broadcast,
// a gradient report (1/100 of the broadcast: one token's slice), and
// the two tiny control frames.
func wireMessages(scale int) []*transport.Message {
	grads := wireIterStart(vggParams / scale / 100).Params
	return []*transport.Message{
		wireIterStart(vggParams / scale),
		{Kind: transport.KindReport, WID: 2, Iter: 5,
			Token: transport.TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16},
			Grads: grads, Loss: 0.75},
		{Kind: transport.KindAssign, Iter: 2,
			Token: transport.TokenInfo{ID: 17, Seq: 3, Lo: 24, Hi: 32, Owner: 1}},
		{Kind: transport.KindRequest, WID: 1, Iter: 4},
	}
}

// measure times fn over iters runs (after one warm-up call) and returns
// wall ns/op and heap bytes/op from the runtime's TotalAlloc delta.
func measure(iters int, fn func() error) (nsOp, bOp float64, err error) {
	if err := fn(); err != nil { // warm up pools
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters), nil
}

// benchCodecKind measures binary encode and decode of m.
func benchCodecKind(m *transport.Message, iters int) (wireCodecEntry, error) {
	e := wireCodecEntry{Kind: m.Kind.String()}
	for _, p := range m.Params {
		e.Floats += len(p)
	}
	for _, g := range m.Grads {
		e.Floats += len(g)
	}

	// The pooled path tcpConn.Send really runs.
	encode := func() error {
		buf, err := transport.EncodeBinaryPooled(m)
		if err != nil {
			return err
		}
		transport.ReleaseFrame(buf)
		return nil
	}
	frame, err := transport.EncodeBinary(m)
	if err != nil {
		return e, err
	}
	decode := func() error {
		got, err := transport.DecodeBinary(frame)
		if err != nil {
			return err
		}
		got.Release()
		return nil
	}
	e.FrameBytes = len(frame)

	if e.EncodeNsOp, e.EncodeBOp, err = measure(iters, encode); err != nil {
		return e, fmt.Errorf("wire bench: encode %s: %w", e.Kind, err)
	}
	if e.DecodeNsOp, e.DecodeBOp, err = measure(iters, decode); err != nil {
		return e, fmt.Errorf("wire bench: decode %s: %w", e.Kind, err)
	}
	return e, nil
}

// benchKernels times MatMul serial (fan-out 1) versus parallel (fan-out
// GOMAXPROCS) at shapes big enough to clear the parallel cutoff. The
// kernels are bit-identical by construction, so only time is measured.
func benchKernels(quick bool) ([]kernelBenchEntry, error) {
	shapes := [][3]int{{256, 512, 512}, {128, 1024, 1024}}
	iters := 5
	if quick {
		shapes = [][3]int{{96, 256, 256}, {64, 512, 512}}
		iters = 10
	}
	defer tensor.SetParallelism(0)

	var out []kernelBenchEntry
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(11))
		a := tensor.New(m, k).Randn(rng, 1)
		b := tensor.New(k, n).Randn(rng, 1)
		mul := func() error { tensor.MatMul(a, b); return nil }

		e := kernelBenchEntry{
			Shape: fmt.Sprintf("%dx%dx%d", m, k, n),
			MACs:  int64(m) * int64(k) * int64(n),
			Cores: runtime.GOMAXPROCS(0),
		}
		var err error
		tensor.SetParallelism(1)
		if e.SerialNsOp, _, err = measure(iters, mul); err != nil {
			return nil, err
		}
		tensor.SetParallelism(0)
		if e.ParallelNsOp, _, err = measure(iters, mul); err != nil {
			return nil, err
		}
		e.Speedup = ratio(e.SerialNsOp, e.ParallelNsOp)
		out = append(out, e)
	}
	return out, nil
}

// runCompressSession trains the shared rt bench workload over real TCP
// (binary codec) with the given gradient codec negotiated on both sides
// and the kernel fan-out fixed to par, and meters the report path
// through the coordinator-side registry.
func runCompressSession(comp transport.Compression, par int, quick bool, ref *rt.Result) (compressSessionEntry, error) {
	cfg := rtBenchConfig(quick)
	cfg.Compress = comp
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	kernel := "parallel"
	if par == 1 {
		kernel = "serial"
	}
	e := compressSessionEntry{
		Compression: comp.String(), Kernel: kernel,
		Workers: cfg.Workers, Iterations: cfg.Iterations,
	}
	tensor.SetParallelism(par)
	defer tensor.SetParallelism(0)

	l, err := transport.ListenCodec("127.0.0.1:0", transport.CodecBinary)
	if err != nil {
		return e, err
	}
	defer l.Close()

	conns := make([]transport.Conn, cfg.Workers)
	acceptErr := make(chan error, 1)
	go func() {
		for i := range conns {
			c, err := l.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			conns[i] = c
		}
		acceptErr <- nil
	}()
	workerErrs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		wid := wid
		go func() {
			c, err := transport.DialCodec(l.Addr(), transport.CodecBinary)
			if err != nil {
				workerErrs <- err
				return
			}
			defer c.Close()
			wCfg := cfg
			wCfg.Metrics = nil // meter on the coordinator side only
			workerErrs <- rt.NewWorker(wid, rtBenchNet(), rtBenchData(), wCfg).Run(c)
		}()
	}
	if err := <-acceptErr; err != nil {
		return e, err
	}

	co, err := rt.NewCoordinator(rtBenchNet(), cfg)
	if err != nil {
		return e, err
	}
	start := time.Now()
	res, err := co.Run(conns)
	if err != nil {
		return e, err
	}
	e.Seconds = time.Since(start).Seconds()
	for i := 0; i < cfg.Workers; i++ {
		if err := <-workerErrs; err != nil {
			return e, err
		}
	}

	var wire int64
	for labels, v := range reg.CounterValues(transport.MetricCompressWireBytes) {
		if strings.Contains(labels, "decode") && strings.Contains(labels, comp.String()) {
			wire += v
		}
	}
	e.ReportBytesPerIter = float64(wire) / float64(cfg.Iterations)
	e.FinalLoss = res.Losses[len(res.Losses)-1]
	e.BitIdentical = minidnn.ParamsEqual(ref.Params, res.Params)
	if comp == transport.CompressExact && !e.BitIdentical {
		return e, fmt.Errorf("exact compression session diverged from the sequential reference")
	}
	return e, nil
}

// runWireSession trains the shared rt bench workload end to end over
// real TCP and reports tokens/sec.
func runWireSession(quick bool, ref *rt.Result) (wireSessionEntry, error) {
	cfg := rtBenchConfig(quick)
	e := wireSessionEntry{Workers: cfg.Workers, Iterations: cfg.Iterations}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return e, err
	}
	defer l.Close()

	conns := make([]transport.Conn, cfg.Workers)
	acceptErr := make(chan error, 1)
	go func() {
		for i := range conns {
			c, err := l.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			conns[i] = c
		}
		acceptErr <- nil
	}()
	workerErrs := make(chan error, cfg.Workers)
	for wid := 0; wid < cfg.Workers; wid++ {
		wid := wid
		go func() {
			c, err := transport.Dial(l.Addr())
			if err != nil {
				workerErrs <- err
				return
			}
			defer c.Close()
			workerErrs <- rt.NewWorker(wid, rtBenchNet(), rtBenchData(), cfg).Run(c)
		}()
	}
	if err := <-acceptErr; err != nil {
		return e, err
	}

	co, err := rt.NewCoordinator(rtBenchNet(), cfg)
	if err != nil {
		return e, err
	}
	start := time.Now()
	res, err := co.Run(conns)
	if err != nil {
		return e, err
	}
	e.Seconds = time.Since(start).Seconds()
	for i := 0; i < cfg.Workers; i++ {
		if err := <-workerErrs; err != nil {
			return e, err
		}
	}
	if e.Seconds > 0 {
		e.TokensPerSec = float64(cfg.Iterations*rtTokens(cfg)) / e.Seconds
	}
	e.BitIdentical = minidnn.ParamsEqual(ref.Params, res.Params)
	return e, nil
}

// runWireBench measures the wire fast path (codec microbenchmarks plus
// end-to-end sessions) and writes the report as JSON to path.
func runWireBench(quick bool, path string, out func(string)) error {
	scale, bulkIters := 8, 5
	if quick {
		scale, bulkIters = 64, 10
	}

	report := wireBenchReport{
		Name:      "wire-path",
		Quick:     quick,
		TimeStamp: time.Now().UTC().Format(time.RFC3339),
	}

	for _, m := range wireMessages(scale) {
		iters := bulkIters
		if m.Kind == transport.KindAssign || m.Kind == transport.KindRequest {
			iters = 10_000 // control frames are sub-microsecond
		}
		e, err := benchCodecKind(m, iters)
		if err != nil {
			return err
		}
		report.Codec = append(report.Codec, e)
	}

	kernels, err := benchKernels(quick)
	if err != nil {
		return fmt.Errorf("wire bench: kernels: %w", err)
	}
	report.Kernels = kernels
	if n := len(report.Kernels); n > 0 {
		report.Summary.Cores = report.Kernels[n-1].Cores
		report.Summary.KernelSpeedup = report.Kernels[n-1].Speedup
	}

	ref, err := rt.Sequential(rtBenchNet(), rtBenchData(), rtBenchConfig(quick))
	if err != nil {
		return fmt.Errorf("wire bench: sequential reference: %w", err)
	}
	if report.Session, err = runWireSession(quick, ref); err != nil {
		return fmt.Errorf("wire bench: session: %w", err)
	}

	// The kernel × codec session matrix: every gradient codec end to end
	// under both kernel modes, with the exact row of each mode as the
	// bytes-per-iter and final-loss baseline.
	codecs := []transport.Compression{
		transport.CompressExact, transport.CompressFP16,
		transport.CompressInt8, transport.CompressTopK,
	}
	for _, par := range []int{1, 0} {
		var exact compressSessionEntry
		for _, comp := range codecs {
			e, err := runCompressSession(comp, par, quick, ref)
			if err != nil {
				return fmt.Errorf("wire bench: %v/%s session: %w", comp, e.Kernel, err)
			}
			if comp == transport.CompressExact {
				exact = e
			}
			e.RatioVsExact = ratio(exact.ReportBytesPerIter, e.ReportBytesPerIter)
			e.LossDeltaVsExact = e.FinalLoss - exact.FinalLoss
			report.Compress = append(report.Compress, e)
			if par == 0 {
				switch comp {
				case transport.CompressFP16:
					report.Summary.FP16ReportRatio = e.RatioVsExact
				case transport.CompressInt8:
					report.Summary.Int8ReportRatio = e.RatioVsExact
				case transport.CompressTopK:
					report.Summary.TopKReportRatio = e.RatioVsExact
				}
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("wire bench: %w", err)
	}
	out(renderWireBench(report, path))
	return nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// renderWireBench formats the report for the terminal.
func renderWireBench(r wireBenchReport, path string) string {
	s := fmt.Sprintf("Binary wire codec fast path (wrote %s)\n", path)
	s += fmt.Sprintf("%-12s %12s %14s %14s %14s %14s\n",
		"kind", "frame-bytes", "enc-ns/op", "enc-B/op", "dec-ns/op", "dec-B/op")
	for _, e := range r.Codec {
		s += fmt.Sprintf("%-12s %12d %14.0f %14.0f %14.0f %14.0f\n",
			e.Kind, e.FrameBytes, e.EncodeNsOp, e.EncodeBOp, e.DecodeNsOp, e.DecodeBOp)
	}
	e := r.Session
	s += fmt.Sprintf("%8s %8s %12s %s\n", "workers", "iters", "tokens/s", "bit-identical")
	s += fmt.Sprintf("%8d %8d %12.1f %v\n", e.Workers, e.Iterations, e.TokensPerSec, e.BitIdentical)
	s += fmt.Sprintf("\nCompute kernels (serial vs parallel matmul, %d core(s))\n", r.Summary.Cores)
	s += fmt.Sprintf("%-14s %14s %14s %8s\n", "shape", "serial-ns/op", "parallel-ns/op", "speedup")
	for _, e := range r.Kernels {
		s += fmt.Sprintf("%-14s %14.0f %14.0f %7.2fx\n", e.Shape, e.SerialNsOp, e.ParallelNsOp, e.Speedup)
	}
	if len(r.Compress) > 0 {
		s += "\nGradient codecs × kernel mode (end-to-end TCP sessions; binary codec)\n"
		s += fmt.Sprintf("%-6s %-9s %14s %8s %12s %12s %s\n",
			"codec", "kernel", "rep-B/iter", "ratio", "final-loss", "Δ vs exact", "bit-identical")
		for _, e := range r.Compress {
			s += fmt.Sprintf("%-6s %-9s %14.0f %7.2fx %12.6f %+12.6f %v\n",
				e.Compression, e.Kernel, e.ReportBytesPerIter, e.RatioVsExact,
				e.FinalLoss, e.LossDeltaVsExact, e.BitIdentical)
		}
		s += fmt.Sprintf("report-path cut vs exact: fp16 %.2fx, int8 %.2fx, topk %.2fx\n",
			r.Summary.FP16ReportRatio, r.Summary.Int8ReportRatio, r.Summary.TopKReportRatio)
	}
	return s
}
