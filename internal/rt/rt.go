// Package rt is Fela's real-time execution engine: a token-scheduled BSP
// trainer running real gradient computation (internal/minidnn) across
// goroutine or TCP workers (internal/transport).
//
// It implements the paper's worker-pull loop (§III-A) at the data-token
// level: every token trains the full model on one shard of the global
// batch, workers consume their own shard's tokens first and steal from
// the most-backlogged peer once their own run dry (the HF policy's
// own-STB-first + helper behaviour), and a straggling worker simply
// requests fewer tokens — reactive mitigation with zero algorithmic
// change.
//
// The headline property this engine demonstrates is the paper's
// "algorithm reproducibility" column (Table II): the coordinator
// accumulates token gradients in canonical token order, so training is
// bit-identical to sequential large-batch SGD no matter how many workers
// participate, how tokens get distributed, or which workers straggle —
// see Sequential and the equivalence tests.
//
// Scope note: the simulator (internal/felaengine) models the full hybrid
// scheme (multi-level sub-model tokens, CTD, decentralized all-reduce);
// this real-execution engine centralizes parameter synchronization at
// the coordinator for verifiability and runs level-0 (data) tokens. The
// per-sub-model backward interleaving needs the paper's virtual-layer
// hooks inside the training framework ([15]) and has no counterpart in a
// from-scratch engine.
package rt

import (
	"fmt"
	"time"

	"fela/internal/metrics"
	"fela/internal/minidnn"
	"fela/internal/obs"
	"fela/internal/tensor"
	"fela/internal/transport"
)

// Config describes a real-time training session.
type Config struct {
	// Workers is the number of workers expected to register.
	Workers int
	// TotalBatch is the global batch size per iteration; sample rows
	// [0, TotalBatch) of the dataset are consumed each iteration.
	TotalBatch int
	// TokenBatch is the per-token batch size (the level-0 parallelism
	// degree). Must divide TotalBatch.
	TokenBatch int
	// Iterations is the number of BSP iterations.
	Iterations int
	// LR is the SGD learning rate.
	LR float32
	// Momentum is the optional SGD momentum coefficient (0 = plain
	// SGD). The coordinator owns the velocity state, so momentum does
	// not affect the bitwise-reproducibility guarantee.
	Momentum float32
	// Delay optionally injects straggler sleeps: the worker sleeps
	// Delay(iter, wid) at the start of each iteration before requesting
	// tokens (the §V-C2 methodology, wall-clock here).
	Delay func(iter, wid int) time.Duration
	// TokenDelay optionally injects a per-token compute cost: the worker
	// sleeps TokenDelay(iter, wid) before training each assigned token.
	// Sleeps overlap across workers, so it models a heavier model whose
	// compute parallelizes with the worker count even on small machines
	// (the simulated-testbed methodology). Sequential ignores it; like
	// Delay it cannot change the training result.
	TokenDelay func(iter, wid int) time.Duration
	// Drain optionally scripts graceful leaves: at the start of each
	// iteration, a worker for which Drain(iter, wid) is true announces a
	// leave instead of pulling tokens and waits for the coordinator's
	// drain ack (granted at the next iteration barrier) before exiting.
	// Like Delay, Sequential ignores it, so draining cannot change the
	// training result.
	Drain func(iter, wid int) bool
	// Elastic, when non-nil, turns on live membership: new workers may
	// join mid-session (Coordinator.Admit), workers may leave gracefully
	// via the drain protocol, and the policy may evict workers. All
	// membership changes are applied at iteration barriers and recorded
	// as Result.Scales; the policy's Distribution hook re-tunes token
	// ownership for the live worker set.
	Elastic MembershipPolicy
	// Compress names the gradient-compression codec this side of the
	// session is willing to use on the report path (transport package:
	// exact, fp16, int8, topk). On a worker it is the codec requested at
	// registration; on the coordinator it is the codec permitted. The
	// negotiated codec is the request when it matches the permit and
	// exact otherwise, so a mixed fleet silently degrades to lossless
	// rather than failing. Only the Grads section of reports is ever
	// lossy — parameter broadcasts stay bit-exact — and the default
	// (CompressExact) preserves the bit-identical-to-Sequential
	// guarantee end to end.
	Compress transport.Compression
	// WorkerTimeout, when positive, enables fault tolerance: a worker
	// that has not registered, or has sat on an assigned token, for
	// longer than this is declared dead; its tokens return to the pool
	// and surviving workers finish the iteration. Zero keeps the
	// strict mode where any worker fault aborts the session. The
	// timeout must comfortably exceed the slowest single-token compute
	// time (plus any injected Delay), or healthy stragglers will be
	// shot.
	WorkerTimeout time.Duration
	// Metrics, when set, receives live telemetry from this side of the
	// session (internal/obs): token latency histograms, per-worker rate
	// EWMAs and straggler scores on the coordinator; compute/fetch
	// timings on workers; per-kind transport traffic on both. Nil keeps
	// the no-op fast path.
	Metrics *obs.Registry
	// Spans, when set, records distributed spans (internal/obs). Trace
	// contexts propagate inside protocol messages, so coordinator and
	// worker spans of one token round-trip share a trace id.
	Spans *obs.Tracer
	// Flight, when set, receives the session's protocol events (token
	// assign/return, death verdicts, barriers, membership changes). Nil
	// records into the process-global flight recorder — recording is
	// always on; this field exists so tests can isolate a ring.
	Flight *obs.FlightRecorder
	// Checkpoint, when set, is called at checkpoint barriers — right
	// after the optimizer step of iteration iter, with copies of the
	// post-step parameters, velocity and the full loss history — and
	// must durably commit them before returning (internal/durable). A
	// returned error aborts the session: training past an unwritable
	// checkpoint would sacrifice the resume guarantee silently.
	Checkpoint func(iter int, params, vel [][]float32, losses []float64) error
	// CheckpointEvery is the checkpoint interval in iterations: every
	// CheckpointEvery-th barrier commits, plus always the final one.
	// Zero or negative defaults to 10 (durable.DefaultEvery).
	CheckpointEvery int
	// Resume, when set, restores a checkpointed session: the model and
	// velocity are installed before the first barrier and training
	// starts at Resume.Iter+1. Because gradients aggregate in canonical
	// token order, the resumed tail recomputes exactly what an
	// uninterrupted run would have — the final parameters are
	// bit-identical no matter where the crash hit.
	Resume *Resume
}

// Resume is the state a restarting coordinator installs from a
// checkpoint before its first iteration.
type Resume struct {
	// Iter is the last completed iteration (the checkpoint's barrier);
	// training resumes at Iter+1.
	Iter int
	// Params and Vel are the post-step model parameters and momentum
	// velocity at that barrier, flattened per tensor.
	Params [][]float32
	Vel    [][]float32
	// Losses is the per-iteration loss history through Iter.
	Losses []float64
}

func (c Config) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("rt: need at least one worker")
	}
	if c.TokenBatch <= 0 || c.TotalBatch <= 0 || c.TotalBatch%c.TokenBatch != 0 {
		return fmt.Errorf("rt: token batch %d must divide total batch %d", c.TokenBatch, c.TotalBatch)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("rt: iterations must be positive")
	}
	if c.LR <= 0 {
		return fmt.Errorf("rt: learning rate must be positive")
	}
	if c.WorkerTimeout < 0 {
		return fmt.Errorf("rt: worker timeout must not be negative")
	}
	if !c.Compress.Valid() {
		return fmt.Errorf("rt: unknown compression codec %d", c.Compress)
	}
	if r := c.Resume; r != nil {
		if r.Iter < 0 || r.Iter >= c.Iterations {
			return fmt.Errorf("rt: resume iteration %d outside [0, %d)", r.Iter, c.Iterations)
		}
		if len(r.Losses) != r.Iter+1 {
			return fmt.Errorf("rt: resume carries %d losses for %d completed iterations", len(r.Losses), r.Iter+1)
		}
	}
	return nil
}

// checkpointEvery resolves the checkpoint interval (see
// Config.CheckpointEvery).
func (c Config) checkpointEvery() int {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 10
}

// checkpointDue reports whether iteration it ends at a checkpoint
// barrier: every checkpointEvery-th iteration, plus always the last.
func (c Config) checkpointDue(it int) bool {
	if c.Checkpoint == nil {
		return false
	}
	return (it+1)%c.checkpointEvery() == 0 || it == c.Iterations-1
}

func (c Config) tokensPerIter() int { return c.TotalBatch / c.TokenBatch }

// BarrierInfo is what a MembershipPolicy sees at each iteration barrier:
// the live stats of the iteration that just completed plus the
// membership changes waiting to be applied.
type BarrierInfo struct {
	// Iter is the just-completed iteration.
	Iter int
	// Live lists the live, non-draining worker ids, ascending.
	Live []int
	// PendingJoins is the number of connections waiting for admission.
	PendingJoins int
	// PendingLeaves lists workers whose drain announcement is waiting
	// for completion, ascending.
	PendingLeaves []int
	// IterTime is the wall-clock duration of the completed iteration.
	IterTime time.Duration
	// TokensByWorker maps live worker id to tokens trained in the
	// completed iteration (the live per-iteration timing signal the
	// online re-tuner consumes).
	TokensByWorker map[int]int
}

// Decision is a MembershipPolicy's verdict at one barrier. Joins are
// applied before leaves and evictions, so a simultaneous join+leave in
// one barrier window never dips the live count below its resting value.
type Decision struct {
	// AdmitJoins is how many pending joiners to admit now (clamped to
	// BarrierInfo.PendingJoins; admission is FIFO).
	AdmitJoins int
	// CompleteLeaves lists pending drains to complete now. Drains not
	// listed stay pending and are offered again at the next barrier.
	CompleteLeaves []int
	// Evict lists live workers to remove now (coordinator-initiated
	// down-scaling). Evicted workers receive a shutdown, not a fault.
	Evict []int
	// Reassign lists live workers to ask to migrate elsewhere (the
	// multi-tenant pool's donor-side release, internal/jobs). Each
	// receives a reassign request and answers with a normal drain: no
	// new worker-side states, the departure completes through the
	// leave/drain-ack path at a later barrier.
	Reassign []int
}

// MembershipPolicy guides elastic membership. The coordinator calls it
// from its own goroutine only, once per iteration barrier, and applies
// the returned decision atomically before seeding the next iteration.
type MembershipPolicy interface {
	// AtBarrier observes the completed iteration and decides which
	// pending membership changes to apply.
	AtBarrier(info BarrierInfo) Decision
	// Distribution maps the next iteration's nTok tokens onto the live
	// worker ids (ascending): the returned slice, of length nTok, gives
	// each token seq's owner. Returning nil falls back to round-robin
	// over the live set. Ownership only steers scheduling — who trains
	// first and who steals — never the arithmetic, so any distribution
	// preserves the bit-identical-to-Sequential guarantee.
	Distribution(nTok int, live []int) []int
}

// Result summarizes a session.
type Result struct {
	// Params are the final model parameters.
	Params []*tensor.Tensor
	// Losses is the mean training loss per iteration (token-weighted).
	Losses []float64
	// TokensByWorker counts how many tokens each worker trained.
	TokensByWorker []int
	// Steals counts tokens trained away from their shard owner.
	Steals int
	// Faults records every worker fault the coordinator detected
	// (empty in a clean run or in strict mode, which aborts instead).
	Faults []metrics.FaultEvent
	// DeadWorkers lists the workers lost during the session, ascending.
	// Planned departures (drains, evictions) are not deaths and appear
	// in Scales instead.
	DeadWorkers []int
	// Scales records every applied membership change in application
	// order (empty unless Config.Elastic is set).
	Scales []metrics.ScaleEvent
	// Reassigned counts token assignments revoked from dead or hung
	// workers and returned to the pool.
	Reassigned int
}

// Sequential runs the exact reference computation the coordinator
// reproduces: for each iteration, token gradients are computed in token
// order on one process and applied as one SGD step. Distributed training
// through the coordinator yields bit-identical parameters.
func Sequential(net *minidnn.Network, ds *minidnn.Dataset, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{TokensByWorker: make([]int, cfg.Workers)}
	nTok := cfg.tokensPerIter()
	frac := float32(cfg.TokenBatch) / float32(cfg.TotalBatch)
	vel := zerosLike(net.Params())
	acc := zerosLike(net.Params())
	for it := 0; it < cfg.Iterations; it++ {
		zeroAll(acc)
		var loss float64
		for seq := 0; seq < nTok; seq++ {
			lo := seq * cfg.TokenBatch
			x, labels := ds.Batch(lo, lo+cfg.TokenBatch)
			net.ZeroGrads()
			loss += net.Loss(x, labels) / float64(nTok)
			for i, g := range net.Grads() {
				acc[i].AddScaled(g, frac)
			}
		}
		net.ZeroGrads()
		applyUpdate(net, vel, acc, cfg)
		res.Losses = append(res.Losses, loss)
	}
	res.Params = net.CloneParams()
	return res, nil
}

// applyUpdate performs the optimizer step shared by Sequential and the
// coordinator: v = momentum*v + grad; params -= lr*v (plain SGD when
// momentum is 0).
func applyUpdate(net *minidnn.Network, vel, acc []*tensor.Tensor, cfg Config) {
	params := net.Params()
	for i := range params {
		if cfg.Momentum != 0 {
			vel[i].Scale(cfg.Momentum)
			vel[i].Add(acc[i])
			params[i].AddScaled(vel[i], -cfg.LR)
		} else {
			params[i].AddScaled(acc[i], -cfg.LR)
		}
	}
}

func zerosLike(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = tensor.New(t.Shape...)
	}
	return out
}

// zeroAll clears a reused accumulation buffer between iterations —
// hoisting the per-iteration zerosLike allocation out of the hot loop.
func zeroAll(ts []*tensor.Tensor) {
	for _, t := range ts {
		t.Zero()
	}
}

// InstallFlat copies flattened per-tensor data (a checkpoint's Params
// or Vel, or an rt.Resume) back into live tensors, validating every
// shape first.
func InstallFlat(ts []*tensor.Tensor, flat [][]float32) error {
	if len(ts) != len(flat) {
		return fmt.Errorf("rt: install %d flat tensors into %d", len(flat), len(ts))
	}
	for i, t := range ts {
		if t.Len() != len(flat[i]) {
			return fmt.Errorf("rt: flat tensor %d has %d elements, model wants %d", i, len(flat[i]), t.Len())
		}
		copy(t.Data, flat[i])
	}
	return nil
}

// flatten copies the tensors' data into per-tensor slices carved from
// one flat backing array: a single allocation for the whole model
// instead of one per tensor. The copy is deliberate — the result must
// not alias live network state, because the in-memory transport delivers
// it by reference and a zombie worker may still read it after the
// coordinator has moved on to the next barrier.
func flatten(ts []*tensor.Tensor) [][]float32 {
	total := 0
	for _, t := range ts {
		total += t.Len()
	}
	backing := make([]float32, total)
	out := make([][]float32, len(ts))
	off := 0
	for i, t := range ts {
		n := t.Len()
		dst := backing[off : off+n : off+n]
		copy(dst, t.Data)
		out[i] = dst
		off += n
	}
	return out
}
