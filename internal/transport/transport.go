// Package transport carries the Fela token protocol between the
// coordinator (Token Server) and workers in the real-time engine
// (internal/rt). Two transports are provided: an in-memory pair for
// single-process training and tests, and TCP for genuinely distributed
// runs (cmd/felaserver, cmd/felaworker). TCP connections speak the
// length-prefixed binary frame format (codec.go).
//
// Fault model: connections can time out (per-message send/receive
// deadlines via SetTimeouts), lose their peer (process crash, network
// partition) or deliver garbage (truncated or corrupted frames). Every
// failure surfaces as an error whose cause is recoverable through
// Classify, so the engine can tell a slow worker from a dead one from a
// byzantine one. FaultConn (fault.go) injects each of these failures
// deterministically for chaos testing.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fela/internal/obs"
)

// Kind enumerates protocol messages.
type Kind int

const (
	// KindRegister introduces a worker (WID set).
	KindRegister Kind = iota
	// KindRequest asks the coordinator for a token (WID set).
	KindRequest
	// KindAssign hands a token to a worker (Token set).
	KindAssign
	// KindReport returns a completed token with its gradient
	// contribution (WID, Token, Grads set).
	KindReport
	// KindIterStart opens an iteration: carries the iteration number
	// and the current model parameters.
	KindIterStart
	// KindShutdown ends the session.
	KindShutdown
	// KindJoin asks to be admitted into an in-progress elastic session
	// (worker -> coordinator, no WID yet). The coordinator replies with
	// the same kind once the join is applied at an iteration barrier,
	// carrying the assigned WID and the first iteration the new worker
	// participates in.
	KindJoin
	// KindLeave announces a graceful drain (WID set): the worker stops
	// pulling tokens and any tokens it still holds return to the pool.
	KindLeave
	// KindDrainAck confirms a drain at the iteration barrier
	// (coordinator -> worker); the worker may disconnect.
	KindDrainAck
	// KindSubmitJob submits a training job to a multi-tenant pool
	// (client -> manager, Job set), or assigns a pooled worker to a job
	// (manager -> worker, JobID and Job set) so the worker can rebuild
	// the job's model and dataset before joining its session.
	KindSubmitJob
	// KindJobDone reports a completed job back to its submitter (JobID,
	// Loss and Params set; Err set when the job was rejected or failed).
	KindJobDone
	// KindReassign asks a live worker to migrate to another job
	// (manager's coordinator -> worker): the worker answers with a
	// normal KindLeave, drains out of the donor job at the next
	// iteration barrier, and re-registers with the pool.
	KindReassign
)

// kindNames orders every protocol kind next to its wire name. Kinds and
// Kind.String both derive from this table, so a new kind added here is
// enumerated and named everywhere at once (locked in by the transport
// kind-table test).
var kindNames = [...]string{
	KindRegister:  "register",
	KindRequest:   "request",
	KindAssign:    "assign",
	KindReport:    "report",
	KindIterStart: "iter-start",
	KindShutdown:  "shutdown",
	KindJoin:      "join",
	KindLeave:     "leave",
	KindDrainAck:  "drain-ack",
	KindSubmitJob: "submit-job",
	KindJobDone:   "job-done",
	KindReassign:  "reassign",
}

// Kinds lists every protocol message kind (test enumeration).
func Kinds() []Kind {
	out := make([]Kind, len(kindNames))
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String names the message kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// JobSpec describes one training job submitted to a multi-tenant pool
// (internal/jobs). It carries everything a pooled worker needs to
// rebuild the job's model replica and dataset deterministically: the
// preset name plus the seeds and hyperparameters, never weights. The
// struct is comparable so the zero value means "no job attached".
type JobSpec struct {
	// Name labels the job in logs, /statusz and reports.
	Name string
	// Model names a deterministic model/dataset preset (internal/jobs
	// BuildSession); empty selects the default preset.
	Model string
	// Seed derives the model-init and dataset seeds (0 = defaults).
	Seed int64
	// Iterations, TotalBatch, TokenBatch, LR and Momentum mirror
	// rt.Config for the job's session.
	Iterations int
	TotalBatch int
	TokenBatch int
	LR         float32
	Momentum   float32
	// MinWorkers floors the job's allocation once started (0 = 1);
	// MaxWorkers caps it (0 = unbounded).
	MinWorkers int
	MaxWorkers int
	// Priority orders jobs under the priority allocation policy; higher
	// is more important.
	Priority int
}

// TokenInfo describes one unit of work: train on sample rows [Lo, Hi).
type TokenInfo struct {
	ID, Seq, Lo, Hi int
	// Owner is the worker whose shard the samples belong to.
	Owner int
}

// Message is the wire unit. Only the fields relevant to Kind are set.
type Message struct {
	Kind   Kind
	WID    int
	Iter   int
	Token  TokenInfo
	Grads  [][]float32
	Params [][]float32
	// Loss carries the token's training loss on reports, and the final
	// mean loss on job-done messages.
	Loss float64
	// Job and JobID attach a job to pool-protocol messages
	// (internal/jobs): a submission carries the spec, a worker
	// assignment carries both, and a worker re-registering with the
	// pool echoes the JobID it just served (0 = fresh worker).
	Job   JobSpec
	JobID int
	// Err carries a failure description on job-done messages (a
	// rejected spec, a session error); empty means success.
	Err string
	// Span propagates the sender's trace context (internal/obs): an
	// assign carries the coordinator's span, the worker's compute span
	// becomes its child, and the report echoes the context back — one
	// distributed trace per token round-trip. Zero when tracing is off.
	Span obs.SpanContext

	// pooled, when non-nil, is the codec arena the Grads/Params slices
	// were carved from; Release returns it. Unexported so hand-built
	// messages are never mistaken for pooled ones.
	pooled *[]float32

	// gradCodec selects the gradient compression applied to the Grads
	// section on the binary wire (compress.go); zero is the exact
	// encoding. Unexported so hand-built messages default to exact. Set
	// and read through SetGradCodec/GradCodec.
	gradCodec Compression
}

// WireSize estimates the message's encoded size in bytes: the float
// payloads dominate (4 bytes each), everything else is a small fixed
// overhead. The in-memory transport has no real frames, so byte-level
// telemetry uses this estimate uniformly for both transports.
func (m *Message) WireSize() int {
	if m == nil {
		return 0
	}
	n := 64 // kind, ids, token info, span context, frame header
	n += len(m.Err)
	if m.Job != (JobSpec{}) {
		n += 48 + len(m.Job.Name) + len(m.Job.Model)
	}
	for _, g := range m.Grads {
		n += 4 * len(g)
	}
	for _, p := range m.Params {
		n += 4 * len(p)
	}
	return n
}

// Conn is a bidirectional, ordered message pipe.
type Conn interface {
	// Send writes one message; it is safe for one concurrent sender.
	Send(*Message) error
	// Recv blocks for the next message; io errors or closure return an
	// error.
	Recv() (*Message, error)
	// Close tears the connection down; pending Recv calls fail.
	Close() error
}

// TimeoutConn is implemented by transports that support per-message
// send/receive deadlines.
type TimeoutConn interface {
	Conn
	// SetTimeouts bounds each subsequent Send and Recv. Zero disables
	// the corresponding deadline.
	SetTimeouts(send, recv time.Duration)
}

// SetTimeouts applies per-message deadlines when the connection supports
// them and reports whether it did.
func SetTimeouts(c Conn, send, recv time.Duration) bool {
	tc, ok := c.(TimeoutConn)
	if ok {
		tc.SetTimeouts(send, recv)
	}
	return ok
}

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrTimeout is returned when a per-message deadline expires.
var ErrTimeout = errors.New("transport: deadline exceeded")

// CodecError wraps a wire-format failure: a frame that could not be
// decoded (truncated, corrupted, or type-mismatched).
type CodecError struct{ Err error }

func (e *CodecError) Error() string { return "transport: codec: " + e.Err.Error() }

// Unwrap exposes the underlying decode error.
func (e *CodecError) Unwrap() error { return e.Err }

// Class buckets connection errors by their operational meaning.
type Class int

const (
	// ClassUnknown is an unclassified error.
	ClassUnknown Class = iota
	// ClassTimeout is a per-message deadline expiry: the peer may be
	// slow, hung, or partitioned, but the connection is intact.
	ClassTimeout
	// ClassPeerGone means the remote end disappeared (EOF, reset,
	// refused): the peer process is dead or unreachable.
	ClassPeerGone
	// ClassCodec means the stream delivered bytes that do not decode:
	// the connection is unusable even though the peer may live.
	ClassCodec
	// ClassClosed means this end was closed locally.
	ClassClosed
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassTimeout:
		return "timeout"
	case ClassPeerGone:
		return "peer-gone"
	case ClassCodec:
		return "codec"
	case ClassClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Classify buckets a connection error. nil maps to ClassUnknown.
func Classify(err error) Class {
	if err == nil {
		return ClassUnknown
	}
	if errors.Is(err, ErrClosed) {
		return ClassClosed
	}
	if errors.Is(err, ErrTimeout) {
		return ClassTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	var ce *CodecError
	if errors.As(err, &ce) {
		return ClassCodec
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ClassPeerGone
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return ClassPeerGone
	}
	return ClassUnknown
}

// memConn is one end of an in-memory pair. The once guarding the shared
// done channel is shared too: closing either end (or both) is safe.
type memConn struct {
	in, out chan *Message
	once    *sync.Once
	done    chan struct{}

	mu          sync.Mutex
	sendTimeout time.Duration
	recvTimeout time.Duration
}

// Pair returns two connected in-memory endpoints. Messages sent on one
// are received on the other, in order. Buffered so senders rarely block.
func Pair() (Conn, Conn) {
	ab := make(chan *Message, 64)
	ba := make(chan *Message, 64)
	done := make(chan struct{})
	once := new(sync.Once)
	a := &memConn{in: ba, out: ab, done: done, once: once}
	b := &memConn{in: ab, out: ba, done: done, once: once}
	return a, b
}

// SetTimeouts bounds each subsequent Send and Recv.
func (c *memConn) SetTimeouts(send, recv time.Duration) {
	c.mu.Lock()
	c.sendTimeout, c.recvTimeout = send, recv
	c.mu.Unlock()
}

func (c *memConn) timeouts() (send, recv time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendTimeout, c.recvTimeout
}

func (c *memConn) Send(m *Message) error {
	// Check closure first: with a buffered channel the select below
	// could otherwise accept a message after Close.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	send, _ := c.timeouts()
	if send <= 0 {
		select {
		case <-c.done:
			return ErrClosed
		case c.out <- m:
			return nil
		}
	}
	tm := time.NewTimer(send)
	defer tm.Stop()
	select {
	case <-c.done:
		return ErrClosed
	case c.out <- m:
		return nil
	case <-tm.C:
		return fmt.Errorf("transport: send: %w", ErrTimeout)
	}
}

func (c *memConn) Recv() (*Message, error) {
	// Like TCP, deliver data buffered before closure: drain the inbox
	// first so a queued message is never lost to the done/in select
	// race after Close.
	select {
	case m := <-c.in:
		return m, nil
	default:
	}
	_, recv := c.timeouts()
	if recv <= 0 {
		select {
		case <-c.done:
			return c.drainOnClose()
		case m := <-c.in:
			return m, nil
		}
	}
	tm := time.NewTimer(recv)
	defer tm.Stop()
	select {
	case <-c.done:
		return c.drainOnClose()
	case m := <-c.in:
		return m, nil
	case <-tm.C:
		return nil, fmt.Errorf("transport: recv: %w", ErrTimeout)
	}
}

// drainOnClose resolves the race where closure and a buffered message
// become ready in the same select: like TCP delivering data sent before
// the FIN, a message already in the inbox wins over the closed verdict.
func (c *memConn) drainOnClose() (*Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	default:
		return nil, ErrClosed
	}
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// tcpConn wraps a net.Conn with the binary frame codec (codec.go):
// buffered header reads, writes straight to the socket from a pooled
// frame buffer.
type tcpConn struct {
	conn net.Conn
	br   *bufio.Reader

	mu sync.Mutex // serializes Send

	tmu         sync.Mutex
	sendTimeout time.Duration
	recvTimeout time.Duration

	stats atomic.Pointer[codecStats]
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{conn: c, br: bufio.NewReaderSize(c, 1<<16)}
}

// SetMetrics attaches a registry the conn's codec work is recorded into
// (per-kind encode/decode ops, wire bytes, latency).
func (c *tcpConn) SetMetrics(reg *obs.Registry) {
	c.stats.Store(newCodecStats(reg))
}

// SetTimeouts bounds each subsequent Send and Recv via socket deadlines.
func (c *tcpConn) SetTimeouts(send, recv time.Duration) {
	c.tmu.Lock()
	c.sendTimeout, c.recvTimeout = send, recv
	c.tmu.Unlock()
}

func (c *tcpConn) timeouts() (send, recv time.Duration) {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	return c.sendTimeout, c.recvTimeout
}

func (c *tcpConn) Send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if send, _ := c.timeouts(); send > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(send)); err != nil {
			return err
		}
	}
	st := c.stats.Load()
	start := time.Now()
	bp := framePool.Get().(*[]byte)
	buf, gi, err := appendFrameMeta((*bp)[:0], m)
	if err != nil {
		framePool.Put(bp)
		return err
	}
	st.encoded(m.Kind, len(buf), start)
	st.compressed(0, gi)
	_, werr := c.conn.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return werr
}

// SendBroadcast writes the broadcast's shared frame: it is encoded once
// (by whichever conn sends first) and the cached bytes are written
// verbatim.
func (c *tcpConn) SendBroadcast(b *Broadcast) error {
	frame, err := b.binaryFrame(c.stats.Load())
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if send, _ := c.timeouts(); send > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(send)); err != nil {
			return err
		}
	}
	_, err = c.conn.Write(frame)
	return err
}

// Recv reads and decodes one frame. The header is validated — magic,
// version, length bound — before the payload is read, so a garbled
// stream fails as ClassCodec without a huge allocation, and a stream
// torn mid-frame fails as ClassPeerGone via io.ErrUnexpectedEOF.
func (c *tcpConn) Recv() (*Message, error) {
	if _, recv := c.timeouts(); recv > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(recv)); err != nil {
			return nil, err
		}
	}
	st := c.stats.Load()
	start := time.Now()
	var hdr [frameHeaderV2]byte
	if _, err := io.ReadFull(c.br, hdr[:frameHeader]); err != nil {
		return nil, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return nil, &CodecError{fmt.Errorf("bad magic %#02x %#02x", hdr[0], hdr[1])}
	}
	header := frameHeader
	codec := CompressExact
	switch hdr[2] {
	case frameVersion:
	case frameVersion2:
		header = frameHeaderV2
		if _, err := io.ReadFull(c.br, hdr[frameHeader:]); err != nil {
			return nil, err
		}
		codec = Compression(hdr[8])
		if codec == CompressExact || !codec.Valid() {
			return nil, &CodecError{fmt.Errorf("bad gradient codec id %d in v2 header", hdr[8])}
		}
		if hdr[9] != 0 || hdr[10] != 0 || hdr[11] != 0 {
			return nil, &CodecError{fmt.Errorf("nonzero reserved bytes in v2 header")}
		}
	default:
		return nil, &CodecError{fmt.Errorf("unsupported frame version %d", hdr[2])}
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxFrameBytes {
		return nil, &CodecError{fmt.Errorf("payload length %d exceeds MaxFrameBytes %d", n, MaxFrameBytes)}
	}
	bp := getFrameBuf(int(n))
	defer putFrameBuf(bp)
	if _, err := io.ReadFull(c.br, *bp); err != nil {
		return nil, err
	}
	m, gi, err := decodePayloadMeta(Kind(hdr[3]), codec, *bp)
	if err != nil {
		return nil, err
	}
	st.decoded(m.Kind, header+int(n), start)
	st.compressed(1, gi)
	return m, nil
}

func (c *tcpConn) Close() error { return c.conn.Close() }

// Listener accepts TCP protocol connections.
type Listener struct{ l net.Listener }

// Listen binds a TCP listener, e.g. on "127.0.0.1:0".
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// ListenCodec is Listen for callers that name the wire codec; codec
// must be CodecBinary. It keeps the signature the benchmark harness
// (perfbench) calls.
func ListenCodec(addr, codec string) (*Listener, error) {
	if !ValidCodec(codec) {
		return nil, fmt.Errorf("transport: unknown codec %q", codec)
	}
	return Listen(addr)
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for one connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// Dial connects to a coordinator at addr.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

// DialCodec is Dial for callers that name the wire codec; codec must be
// CodecBinary. It keeps the signature the benchmark harness (perfbench)
// calls.
func DialCodec(addr, codec string) (Conn, error) {
	if !ValidCodec(codec) {
		return nil, fmt.Errorf("transport: unknown codec %q", codec)
	}
	return Dial(addr)
}

// DialRetry dials addr, retrying with exponential backoff (doubling
// from backoff, capped at 2s) until a connection succeeds or attempts
// run out. It is how workers ride out a coordinator that has not bound
// its port yet.
func DialRetry(addr string, attempts int, backoff time.Duration) (Conn, error) {
	if attempts <= 0 {
		attempts = 1
	}
	const maxBackoff = 2 * time.Second
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		var c Conn
		if c, err = Dial(addr); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("transport: giving up after %d attempts: %w", attempts, err)
}
