package transport

// The binary wire codec: a versioned, length-prefixed frame format with
// hand-rolled field encoding and bulk little-endian float payloads. It
// exists because the hot path of a training session is dominated by two
// message families — the per-iteration parameter broadcast (KindIterStart)
// and the per-token gradient report (KindReport) — whose payloads are
// megabytes of float32. A reflection-driven encoder handles those one
// value at a time and allocates a fresh tree on every decode; this codec
// copies them 4 bytes at a time from (and into) pooled buffers, so the
// wire path stays bandwidth-bound instead of codec- and GC-bound.
//
// Frame layout (version 1, DESIGN.md §10):
//
//	offset  size  field
//	0       2     magic 0xFE 0x7A
//	2       1     version (1)
//	3       1     kind (Kind as one byte)
//	4       4     payload length N, uint32 little-endian (≤ MaxFrameBytes)
//	8       N     payload
//
// Payload (fields in fixed order; varint = zig-zag signed varint,
// uvarint = unsigned varint, both from encoding/binary):
//
//	varint   WID
//	varint   Iter
//	varint   Token.ID, Token.Seq, Token.Lo, Token.Hi, Token.Owner
//	8B       Loss (float64 bits, little-endian)
//	uvarint  len(Grads);  per slice: uvarint length, then 4·len bytes
//	         of float32 bits, little-endian
//	uvarint  len(Params); same encoding as Grads
//	uvarint  len(Err), then the bytes
//	1B       job-spec presence flag (0 or 1); if 1:
//	           uvarint len(Name)+bytes, uvarint len(Model)+bytes,
//	           varint Seed, Iterations, TotalBatch, TokenBatch,
//	           4B LR, 4B Momentum (float32 bits),
//	           varint MinWorkers, MaxWorkers, Priority
//	varint   JobID
//	8B + 8B  Span.TraceID, Span.SpanID (uint64, little-endian)
//
// Decoding is strict: every length is validated against the bytes that
// are actually present before anything is allocated, so a corrupted or
// hostile length can never cause an oversized allocation — it returns a
// *CodecError (ClassCodec) instead. Decoded float payloads live in
// pooled arenas; see Message.Release for the ownership rule.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"fela/internal/obs"
)

// CodecBinary names the length-prefixed binary frame format above, the
// only wire codec TCP connections speak. It is the one name ListenCodec
// and DialCodec accept, and the codec label on the codec metrics.
const CodecBinary = "binary"

// ValidCodec reports whether name names the supported wire codec.
func ValidCodec(name string) bool { return name == CodecBinary }

const (
	frameMagic0  = 0xFE
	frameMagic1  = 0x7A
	frameVersion = 1
	frameHeader  = 8

	// Version-2 frames exist only to carry a non-exact gradient codec:
	// same first 8 bytes (version byte = 2), then the codec id and 3
	// reserved zero bytes. Exact-mode frames are always emitted as
	// version 1, so compression never changes a byte of the default
	// wire format.
	frameVersion2 = 2
	frameHeaderV2 = 12
)

// MaxFrameBytes bounds one frame's payload. A length field beyond it is
// rejected before any allocation happens, so a garbled or hostile header
// cannot make the decoder reserve unbounded memory.
const MaxFrameBytes = 1 << 28 // 256 MiB

// Telemetry metric names for codec work (the instrumented-conn traffic
// metrics live in instrument.go). Encode ops count actual
// serializations, so a cached broadcast frame fanned out to N workers
// still counts once — the property the encode-once test asserts.
const (
	// MetricCodecOps counts encode/decode invocations by op, codec and
	// message kind.
	MetricCodecOps = "fela_transport_codec_ops_total"
	// MetricCodecBytes counts encoded/decoded wire bytes by op and codec.
	MetricCodecBytes = "fela_transport_codec_bytes_total"
	// MetricCodecSecs is the encode/decode latency histogram by op and
	// codec.
	MetricCodecSecs = "fela_transport_codec_seconds"
	// MetricCompressRawBytes counts dense gradient bytes (4 per float)
	// entering the gradient codec, by op and compression name.
	MetricCompressRawBytes = "fela_transport_compress_raw_bytes_total"
	// MetricCompressWireBytes counts the encoded grads-section bytes
	// those gradients became on the wire, by op and compression name.
	MetricCompressWireBytes = "fela_transport_compress_wire_bytes_total"
	// MetricCompressRatio is the cumulative raw/wire ratio per
	// compression name (≈1 for exact, ≈2 for fp16, ≈4 for int8, ≈5–6
	// for topk).
	MetricCompressRatio = "fela_transport_compress_ratio"
)

// codecStats caches the codec instruments per kind so the hot path never
// touches the registry's locked maps. A nil *codecStats disables
// recording entirely.
type codecStats struct {
	encOps, decOps     []*obs.Counter // indexed by kind; last slot catches unknown kinds
	encBytes, decBytes *obs.Counter
	encSecs, decSecs   *obs.Histogram

	// Gradient-compression accounting, indexed by Compression then op
	// (0 = encode, 1 = decode). Recorded only for frames that actually
	// carry gradients, so handshake and broadcast frames don't skew the
	// ratio.
	compRaw, compWire [compressCount][2]*obs.Counter
	compRatio         [compressCount]*obs.Gauge
}

func newCodecStats(reg *obs.Registry) *codecStats {
	if reg == nil {
		return nil
	}
	const codec = CodecBinary
	reg.Help(MetricCodecOps, "Codec encode/decode invocations by op, codec and message kind.")
	reg.Help(MetricCodecBytes, "Wire bytes encoded/decoded by op and codec.")
	reg.Help(MetricCodecSecs, "Codec encode/decode latency in seconds by op and codec.")
	s := &codecStats{
		encOps:   make([]*obs.Counter, len(kindNames)+1),
		decOps:   make([]*obs.Counter, len(kindNames)+1),
		encBytes: reg.Counter(MetricCodecBytes, "op", "encode", "codec", codec),
		decBytes: reg.Counter(MetricCodecBytes, "op", "decode", "codec", codec),
		encSecs:  reg.Histogram(MetricCodecSecs, nil, "op", "encode", "codec", codec),
		decSecs:  reg.Histogram(MetricCodecSecs, nil, "op", "decode", "codec", codec),
	}
	for k := 0; k <= len(kindNames); k++ {
		name := "unknown"
		if k < len(kindNames) {
			name = Kind(k).String()
		}
		s.encOps[k] = reg.Counter(MetricCodecOps, "op", "encode", "codec", codec, "kind", name)
		s.decOps[k] = reg.Counter(MetricCodecOps, "op", "decode", "codec", codec, "kind", name)
	}
	reg.Help(MetricCompressRawBytes, "Dense gradient bytes entering the gradient codec by op and compression.")
	reg.Help(MetricCompressWireBytes, "Encoded grads-section wire bytes by op and compression.")
	reg.Help(MetricCompressRatio, "Cumulative gradient compression ratio (raw/wire) per compression.")
	for c := range s.compRatio {
		name := Compression(c).String()
		s.compRaw[c][0] = reg.Counter(MetricCompressRawBytes, "op", "encode", "compression", name)
		s.compRaw[c][1] = reg.Counter(MetricCompressRawBytes, "op", "decode", "compression", name)
		s.compWire[c][0] = reg.Counter(MetricCompressWireBytes, "op", "encode", "compression", name)
		s.compWire[c][1] = reg.Counter(MetricCompressWireBytes, "op", "decode", "compression", name)
		s.compRatio[c] = reg.Gauge(MetricCompressRatio, "compression", name)
	}
	return s
}

// gradInfo summarizes one frame's gradient payload for the compression
// telemetry: the dense size the Grads slices represent and the wire
// bytes their encoded section occupied. raw == 0 means the frame
// carried no gradients.
type gradInfo struct {
	codec Compression
	raw   int
	wire  int
}

// compressed records one encode (op 0) or decode (op 1) of a
// gradient-bearing frame and refreshes the codec's cumulative ratio
// gauge.
func (s *codecStats) compressed(op int, gi gradInfo) {
	if s == nil || gi.raw == 0 || !gi.codec.Valid() {
		return
	}
	raw, wire := s.compRaw[gi.codec][op], s.compWire[gi.codec][op]
	raw.Add(int64(gi.raw))
	wire.Add(int64(gi.wire))
	rawTot := s.compRaw[gi.codec][0].Value() + s.compRaw[gi.codec][1].Value()
	wireTot := s.compWire[gi.codec][0].Value() + s.compWire[gi.codec][1].Value()
	if wireTot > 0 {
		s.compRatio[gi.codec].Set(float64(rawTot) / float64(wireTot))
	}
}

func (s *codecStats) slot(k Kind) int {
	if k >= 0 && int(k) < len(kindNames) {
		return int(k)
	}
	return len(kindNames)
}

func (s *codecStats) encoded(k Kind, n int, start time.Time) {
	if s == nil {
		return
	}
	s.encOps[s.slot(k)].Inc()
	s.encBytes.Add(int64(n))
	s.encSecs.Observe(time.Since(start).Seconds())
}

func (s *codecStats) decoded(k Kind, n int, start time.Time) {
	if s == nil {
		return
	}
	s.decOps[s.slot(k)].Inc()
	s.decBytes.Add(int64(n))
	s.decSecs.Observe(time.Since(start).Seconds())
}

// framePool recycles encode scratch space and inbound frame buffers.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getFrameBuf(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		b := make([]byte, n, 1<<bits.Len(uint(n-1)))
		*bp = b
	}
	*bp = (*bp)[:n]
	return bp
}

func putFrameBuf(bp *[]byte) { framePool.Put(bp) }

// floatPool recycles the flat arenas decoded Grads/Params slices are
// carved from. One Get per decoded message, returned by
// Message.Release.
var floatPool = sync.Pool{New: func() any { s := make([]float32, 0, 1024); return &s }}

func getFloatArena(n int) *[]float32 {
	sp := floatPool.Get().(*[]float32)
	if cap(*sp) < n {
		s := make([]float32, 0, 1<<bits.Len(uint(n-1)))
		*sp = s
	}
	*sp = (*sp)[:0]
	return sp
}

// Release returns the message's pooled float backing (if any) to the
// codec pool and clears Grads/Params. Only the binary decoder attaches
// pooled backing, so Release is a safe no-op on messages built by hand
// or delivered by reference over the in-memory transport. Ownership
// rule: the goroutine that consumed the payload — the coordinator after
// folding a report into its gradient arena, the worker after installing
// broadcast parameters — calls Release exactly once; the Grads/Params
// slices must not be used afterwards. Messages that are never released
// are simply garbage collected.
func (m *Message) Release() {
	if m == nil || m.pooled == nil {
		return
	}
	p := m.pooled
	m.pooled = nil
	m.Grads, m.Params = nil, nil
	floatPool.Put(p)
}

// appendUvarint/appendVarint wrap encoding/binary's append helpers for
// symmetry with the reader below.
func appendFloats(dst []byte, fs []float32) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 4*len(fs))[:off+4*len(fs)]
	buf := dst[off:]
	for i, f := range fs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	return dst
}

func appendSlices(dst []byte, ss [][]float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = appendFloats(dst, s)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFrame encodes m as one binary wire frame appended to dst
// (which may be nil). The hot path passes pooled scratch buffers here;
// EncodeBinary is the allocating convenience wrapper.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	out, _, err := appendFrameMeta(dst, m)
	return out, err
}

// appendFrameMeta is AppendFrame plus the gradient-payload accounting
// the compression telemetry records (gradInfo.raw == 0 when the frame
// carries no gradients).
func appendFrameMeta(dst []byte, m *Message) ([]byte, gradInfo, error) {
	var gi gradInfo
	if m.Kind < 0 || m.Kind > 255 {
		return dst, gi, &CodecError{fmt.Errorf("kind %d does not fit the wire's kind byte", int(m.Kind))}
	}
	if !m.gradCodec.Valid() {
		return dst, gi, &CodecError{fmt.Errorf("unknown gradient codec %d", uint8(m.gradCodec))}
	}
	base := len(dst)
	header := frameHeader
	if m.gradCodec == CompressExact {
		dst = append(dst, frameMagic0, frameMagic1, frameVersion, byte(m.Kind), 0, 0, 0, 0)
	} else {
		header = frameHeaderV2
		dst = append(dst, frameMagic0, frameMagic1, frameVersion2, byte(m.Kind), 0, 0, 0, 0,
			byte(m.gradCodec), 0, 0, 0)
	}
	dst = binary.AppendVarint(dst, int64(m.WID))
	dst = binary.AppendVarint(dst, int64(m.Iter))
	dst = binary.AppendVarint(dst, int64(m.Token.ID))
	dst = binary.AppendVarint(dst, int64(m.Token.Seq))
	dst = binary.AppendVarint(dst, int64(m.Token.Lo))
	dst = binary.AppendVarint(dst, int64(m.Token.Hi))
	dst = binary.AppendVarint(dst, int64(m.Token.Owner))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Loss))
	gradStart := len(dst)
	if m.gradCodec == CompressExact {
		dst = appendSlices(dst, m.Grads)
	} else {
		dst = appendCompressedSlices(dst, m.Grads, m.gradCodec)
	}
	gi.codec = m.gradCodec
	gi.wire = len(dst) - gradStart
	for _, g := range m.Grads {
		gi.raw += 4 * len(g)
	}
	dst = appendSlices(dst, m.Params)
	dst = appendString(dst, m.Err)
	if m.Job == (JobSpec{}) {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendString(dst, m.Job.Name)
		dst = appendString(dst, m.Job.Model)
		dst = binary.AppendVarint(dst, m.Job.Seed)
		dst = binary.AppendVarint(dst, int64(m.Job.Iterations))
		dst = binary.AppendVarint(dst, int64(m.Job.TotalBatch))
		dst = binary.AppendVarint(dst, int64(m.Job.TokenBatch))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(m.Job.LR))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(m.Job.Momentum))
		dst = binary.AppendVarint(dst, int64(m.Job.MinWorkers))
		dst = binary.AppendVarint(dst, int64(m.Job.MaxWorkers))
		dst = binary.AppendVarint(dst, int64(m.Job.Priority))
	}
	dst = binary.AppendVarint(dst, int64(m.JobID))
	dst = binary.LittleEndian.AppendUint64(dst, m.Span.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, m.Span.SpanID)
	payload := len(dst) - base - header
	if payload > MaxFrameBytes {
		return dst[:base], gi, &CodecError{fmt.Errorf("payload %d exceeds MaxFrameBytes %d", payload, MaxFrameBytes)}
	}
	binary.LittleEndian.PutUint32(dst[base+4:base+8], uint32(payload))
	return dst, gi, nil
}

// EncodeBinary renders one message in the binary wire format (golden
// tests, corpus generation, broadcast caching, diagnostics).
func EncodeBinary(m *Message) ([]byte, error) {
	return AppendFrame(nil, m)
}

// EncodeBinaryPooled encodes m into scratch space drawn from the shared
// frame pool — the allocation-free path tcpConn.Send runs. The caller
// owns the returned frame until it hands it back with ReleaseFrame.
func EncodeBinaryPooled(m *Message) ([]byte, error) {
	bp := framePool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], m)
	if err != nil {
		*bp = buf[:0]
		framePool.Put(bp)
		return nil, err
	}
	return buf, nil
}

// ReleaseFrame returns a frame obtained from EncodeBinaryPooled to the
// pool. The caller must not touch the slice afterwards.
func ReleaseFrame(buf []byte) {
	b := buf[:0]
	framePool.Put(&b)
}

// DecodeBinary decodes one complete binary frame. Truncated, corrupted
// or oversized-length input returns a *CodecError (never panics, never
// allocates beyond the bytes actually present). The returned message's
// float payloads are pooled; see Message.Release.
func DecodeBinary(data []byte) (*Message, error) {
	if len(data) < frameHeader {
		return nil, &CodecError{fmt.Errorf("frame shorter than %d-byte header", frameHeader)}
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return nil, &CodecError{fmt.Errorf("bad magic %#02x %#02x", data[0], data[1])}
	}
	header := frameHeader
	codec := CompressExact
	switch data[2] {
	case frameVersion:
	case frameVersion2:
		header = frameHeaderV2
		if len(data) < header {
			return nil, &CodecError{fmt.Errorf("frame shorter than %d-byte v2 header", header)}
		}
		codec = Compression(data[8])
		if codec == CompressExact || !codec.Valid() {
			return nil, &CodecError{fmt.Errorf("bad gradient codec id %d in v2 header", data[8])}
		}
		if data[9] != 0 || data[10] != 0 || data[11] != 0 {
			return nil, &CodecError{fmt.Errorf("nonzero reserved bytes in v2 header")}
		}
	default:
		return nil, &CodecError{fmt.Errorf("unsupported frame version %d", data[2])}
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxFrameBytes {
		return nil, &CodecError{fmt.Errorf("payload length %d exceeds MaxFrameBytes %d", n, MaxFrameBytes)}
	}
	if uint64(n) != uint64(len(data)-header) {
		return nil, &CodecError{fmt.Errorf("payload length %d does not match %d frame bytes", n, len(data)-header)}
	}
	m, _, err := decodePayloadMeta(Kind(data[3]), codec, data[header:])
	return m, err
}

// payloadReader walks one frame payload with sticky error state; every
// accessor validates against the bytes remaining before allocating.
type payloadReader struct {
	data []byte
	off  int
	err  error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &CodecError{fmt.Errorf(format, args...)}
	}
}

func (r *payloadReader) remaining() int { return len(r.data) - r.off }

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated or malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated or malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("%d bytes requested with %d remaining", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *payloadReader) u32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *payloadReader) u64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d with %d bytes remaining", n, r.remaining())
		return ""
	}
	return string(r.bytes(int(n)))
}

// slicesInto decodes one [][]float32 group, carving each slice out of
// the shared arena. Lengths are checked against the remaining payload
// before the arena grows, so the arena's capacity (remaining/4) is
// always sufficient and hostile lengths fail before allocation.
func (r *payloadReader) slicesInto(arena *[]float32) [][]float32 {
	cnt := r.uvarint()
	if r.err != nil || cnt == 0 {
		return nil
	}
	if cnt > uint64(r.remaining()) {
		r.fail("%d slices declared with %d bytes remaining", cnt, r.remaining())
		return nil
	}
	out := make([][]float32, cnt)
	for i := range out {
		ln := r.uvarint()
		if r.err != nil {
			return nil
		}
		if ln > uint64(r.remaining())/4 {
			r.fail("slice of %d floats with %d bytes remaining", ln, r.remaining())
			return nil
		}
		src := r.bytes(int(ln) * 4)
		start := len(*arena)
		*arena = (*arena)[:start+int(ln)]
		dst := (*arena)[start : start+int(ln) : start+int(ln)]
		for j := range dst {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
		}
		out[i] = dst
	}
	return out
}

// decodePayloadMeta decodes a frame body whose header already
// validated, expanding a compressed grads section to dense floats when
// codec is non-exact. The returned gradInfo feeds the compression
// telemetry.
func decodePayloadMeta(kind Kind, codec Compression, payload []byte) (*Message, gradInfo, error) {
	var gi gradInfo
	r := &payloadReader{data: payload}
	m := &Message{Kind: kind, gradCodec: codec}
	m.WID = int(r.varint())
	m.Iter = int(r.varint())
	m.Token.ID = int(r.varint())
	m.Token.Seq = int(r.varint())
	m.Token.Lo = int(r.varint())
	m.Token.Hi = int(r.varint())
	m.Token.Owner = int(r.varint())
	m.Loss = math.Float64frombits(r.u64())
	gradStart := r.off
	var arena *[]float32
	if codec == CompressExact {
		// The arena is capacity-bounded by the payload itself: every
		// float still to be decoded costs at least 4 payload bytes.
		arena = getFloatArena(r.remaining() / 4)
		m.Grads = r.slicesInto(arena)
	} else if r.err == nil {
		// Compressed floats cost less than 4 wire bytes each, so the
		// payload no longer bounds the arena — a scan pass sizes the
		// gradient expansion (validating every length) and the params
		// that follow stay exact.
		total, err := r.scanCompressedSlices(codec)
		if err != nil {
			return nil, gi, err
		}
		arena = getFloatArena(total + r.remaining()/4)
		m.Grads = r.compressedSlicesInto(arena, codec)
	} else {
		arena = getFloatArena(0)
	}
	gi.codec = codec
	gi.wire = r.off - gradStart
	for _, g := range m.Grads {
		gi.raw += 4 * len(g)
	}
	m.Params = r.slicesInto(arena)
	if len(*arena) > 0 {
		m.pooled = arena
	} else {
		floatPool.Put(arena)
	}
	m.Err = r.str()
	switch flag := r.bytes(1); {
	case r.err != nil:
	case flag[0] == 1:
		m.Job.Name = r.str()
		m.Job.Model = r.str()
		m.Job.Seed = r.varint()
		m.Job.Iterations = int(r.varint())
		m.Job.TotalBatch = int(r.varint())
		m.Job.TokenBatch = int(r.varint())
		m.Job.LR = math.Float32frombits(r.u32())
		m.Job.Momentum = math.Float32frombits(r.u32())
		m.Job.MinWorkers = int(r.varint())
		m.Job.MaxWorkers = int(r.varint())
		m.Job.Priority = int(r.varint())
	case flag[0] != 0:
		r.fail("job-spec presence flag %d", flag[0])
	}
	m.JobID = int(r.varint())
	m.Span.TraceID = r.u64()
	m.Span.SpanID = r.u64()
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing payload bytes", r.remaining())
	}
	if r.err != nil {
		m.Release()
		return nil, gi, r.err
	}
	return m, gi, nil
}

// decodePayload decodes an exact (version-1) frame body.
func decodePayload(kind Kind, payload []byte) (*Message, error) {
	m, _, err := decodePayloadMeta(kind, CompressExact, payload)
	return m, err
}

// Broadcast wraps a message whose encoded frame is shared across many
// sends — the coordinator's per-iteration parameter broadcast. The first
// TCP send encodes the frame exactly once; every other recipient
// (including elastic joiners snapshotting at the same barrier) receives
// the identical cached bytes. The in-memory pair, which delivers
// pointers rather than frames, falls back to an ordinary Send of Msg.
// The cached frame is immutable once built and is garbage collected
// with the Broadcast — it is deliberately not pooled, because queued
// async senders may still reference it after the fan-out loop returns.
type Broadcast struct {
	// Msg is the underlying message; it must not be mutated after the
	// first send.
	Msg *Message

	once  sync.Once
	frame []byte
	err   error
}

// NewBroadcast prepares m for encode-once fan-out.
func NewBroadcast(m *Message) *Broadcast { return &Broadcast{Msg: m} }

// binaryFrame returns the cached binary frame, encoding it on first use
// (counted against st, the stats of whichever conn got there first).
func (b *Broadcast) binaryFrame(st *codecStats) ([]byte, error) {
	b.once.Do(func() {
		start := time.Now()
		b.frame, b.err = EncodeBinary(b.Msg)
		if b.err == nil {
			st.encoded(b.Msg.Kind, len(b.frame), start)
		}
	})
	return b.frame, b.err
}

// BroadcastConn is implemented by connections that can fan out a shared
// pre-encoded frame.
type BroadcastConn interface {
	Conn
	// SendBroadcast writes the broadcast, reusing its cached frame when
	// the wire format allows.
	SendBroadcast(*Broadcast) error
}

// SendBroadcast sends b over c, using the encode-once fast path when the
// connection supports it and falling back to a plain Send of b.Msg
// otherwise.
func SendBroadcast(c Conn, b *Broadcast) error {
	if bc, ok := c.(BroadcastConn); ok {
		return bc.SendBroadcast(b)
	}
	return c.Send(b.Msg)
}

// MetricsConn is implemented by connections that record codec-level
// telemetry (encode/decode ops, bytes, latency). Instrument wires the
// registry through automatically; wrappers forward it inward.
type MetricsConn interface {
	Conn
	// SetMetrics attaches the registry the connection's codec work is
	// recorded into.
	SetMetrics(*obs.Registry)
}

// SetConnMetrics attaches codec telemetry when the connection supports
// it and reports whether it did.
func SetConnMetrics(c Conn, reg *obs.Registry) bool {
	mc, ok := c.(MetricsConn)
	if ok {
		mc.SetMetrics(reg)
	}
	return ok
}
