package transport

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fela/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the committed binary golden frames")

// sampleMessages returns one representative message per protocol kind.
func sampleMessages() []*Message {
	return []*Message{
		{Kind: KindRegister, WID: 3},
		{Kind: KindRequest, WID: 1, Iter: 4},
		{Kind: KindAssign, Iter: 2, Token: TokenInfo{ID: 17, Seq: 3, Lo: 24, Hi: 32, Owner: 1}},
		{Kind: KindReport, WID: 2, Iter: 5, Token: TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16, Owner: 0},
			Grads: [][]float32{{1.5, -2.25}, {0.125}}, Loss: 0.75},
		{Kind: KindIterStart, Iter: 7, Params: [][]float32{{3, 1, 4}, {1, 5}}},
		{Kind: KindShutdown},
		{Kind: KindJoin, WID: 5, Iter: 3},
		{Kind: KindLeave, WID: 2},
		{Kind: KindDrainAck, WID: 2, Iter: 6},
		{Kind: KindSubmitJob, JobID: 2, Job: JobSpec{
			Name: "big", Model: "mlp-small", Seed: 11, Iterations: 30,
			TotalBatch: 128, TokenBatch: 8, LR: 0.05, Momentum: 0.5,
			MinWorkers: 1, MaxWorkers: 4, Priority: 2,
		}},
		{Kind: KindJobDone, JobID: 2, Loss: 0.375, Params: [][]float32{{1, 2}, {3}}, Err: "spec rejected"},
		{Kind: KindReassign, WID: 3, Iter: 9},
	}
}

// TestBinaryRoundTripAllKinds encodes and decodes one message of every
// kind through the binary codec and checks full structural equality.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	msgs := sampleMessages()
	if len(msgs) != len(Kinds()) {
		t.Fatalf("sampleMessages covers %d kinds, protocol has %d", len(msgs), len(Kinds()))
	}
	for _, m := range msgs {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Kind, err)
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		got.pooled = nil // field equality only; pooling is tested separately
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v: round trip mangled:\nwant %+v\ngot  %+v", m.Kind, m, got)
		}
	}
}

// TestBinaryGoldenFrames locks the wire format byte-for-byte: one
// committed golden frame per protocol kind. A mismatch means the frame
// layout changed, which is a wire protocol break — bump frameVersion
// and regenerate with `go test ./internal/transport/ -run Golden -update`.
func TestBinaryGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range sampleMessages() {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Kind, err)
		}
		path := filepath.Join(dir, "binary-"+m.Kind.String()+".frame")
		if *updateGolden {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v: missing golden frame (regenerate with -update): %v", m.Kind, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%v: encoded frame differs from committed golden (%d vs %d bytes) — wire format changed without a version bump", m.Kind, len(data), len(want))
		}
	}
}

func equalSlices(a, b [][]float32) bool {
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

// TestBinaryTruncationErrors: every strict prefix of a valid binary
// frame must decode to a ClassCodec error — never a panic, never a
// silent success.
func TestBinaryTruncationErrors(t *testing.T) {
	for _, m := range sampleMessages() {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			got, err := DecodeBinary(data[:cut])
			if err == nil {
				t.Fatalf("%v: truncation at %d/%d decoded without error", m.Kind, cut, len(data))
			}
			if got != nil {
				t.Fatalf("%v: truncation at %d returned a message alongside the error", m.Kind, cut)
			}
			if Classify(err) != ClassCodec {
				t.Fatalf("%v: truncation at %d classified %v, want codec", m.Kind, cut, Classify(err))
			}
		}
	}
}

// TestBinaryGarbleErrors: flipping any byte of a valid frame either
// still decodes (a flipped float bit is a different valid frame) or
// fails as a codec error. It must never panic.
func TestBinaryGarbleErrors(t *testing.T) {
	for _, m := range sampleMessages() {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			mut := bytes.Clone(data)
			mut[i] ^= 0xff
			got, err := DecodeBinary(mut)
			if err != nil && Classify(err) != ClassCodec {
				t.Fatalf("%v: garble at %d classified %v, want codec", m.Kind, i, Classify(err))
			}
			got.Release()
		}
	}
}

// TestBinaryOversizedLengths: hostile length fields — a frame header or
// an interior slice length claiming far more data than is present —
// must fail cleanly before any allocation of the claimed size.
func TestBinaryOversizedLengths(t *testing.T) {
	// Header length beyond MaxFrameBytes.
	hdr := []byte{frameMagic0, frameMagic1, frameVersion, byte(KindReport), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:8], MaxFrameBytes+1)
	if _, err := DecodeBinary(hdr); err == nil || Classify(err) != ClassCodec {
		t.Fatalf("oversized header length: got %v, want codec error", err)
	}
	// Header length larger than the bytes present.
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<20)
	if _, err := DecodeBinary(hdr); err == nil || Classify(err) != ClassCodec {
		t.Fatalf("short frame with large declared length: got %v, want codec error", err)
	}
	// Interior slice count/length far beyond the payload: build a valid
	// report frame, then corrupt the gradient count uvarint region by
	// splicing a huge uvarint where the count lives.
	m := &Message{Kind: KindReport, Grads: [][]float32{{1, 2, 3, 4}}}
	data, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	// Payload prefix before the grads count: 7 varints (all zero here,
	// 1 byte each) + 8 loss bytes.
	cntOff := frameHeader + 7 + 8
	huge := binary.AppendUvarint(nil, 1<<40)
	mut := append(append(append([]byte{}, data[:cntOff]...), huge...), data[cntOff+1:]...)
	binary.LittleEndian.PutUint32(mut[4:8], uint32(len(mut)-frameHeader))
	if _, err := DecodeBinary(mut); err == nil || Classify(err) != ClassCodec {
		t.Fatalf("oversized slice count: got %v, want codec error", err)
	}
}

// TestReleaseSemantics: Release recycles a decoded message's arena,
// clears the payload fields, and is an idempotent no-op on messages the
// codec never touched.
func TestReleaseSemantics(t *testing.T) {
	m := &Message{Kind: KindIterStart, Params: [][]float32{{1, 2, 3}, {4, 5}}}
	data, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.pooled == nil {
		t.Fatal("decoded float payload is not pooled")
	}
	got.Release()
	if got.pooled != nil || got.Grads != nil || got.Params != nil {
		t.Fatal("Release did not clear the payload fields")
	}
	got.Release() // double release must be a no-op
	// Hand-built and nil messages are never pooled.
	hand := &Message{Kind: KindReport, Grads: [][]float32{{1}}}
	hand.Release()
	if hand.Grads == nil {
		t.Fatal("Release cleared a non-pooled message's payload")
	}
	(*Message)(nil).Release()
	// Messages without float payloads carry no arena.
	data, err = EncodeBinary(&Message{Kind: KindShutdown})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.pooled != nil {
		t.Fatal("payload-free message holds a pooled arena")
	}
}

// TestBroadcastEncodeOnce: the broadcast cache serializes its message
// exactly once no matter how many conns fan it out, and every fan-out
// writes identical bytes.
func TestBroadcastEncodeOnce(t *testing.T) {
	reg := obs.NewRegistry()
	st := newCodecStats(reg)
	b := NewBroadcast(&Message{Kind: KindIterStart, Iter: 3, Params: [][]float32{{1, 2, 3, 4}}})
	var first []byte
	for i := 0; i < 8; i++ {
		frame, err := b.binaryFrame(st)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = frame
		} else if &first[0] != &frame[0] {
			t.Fatal("broadcast frame re-encoded instead of cached")
		}
	}
	want, err := EncodeBinary(b.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("cached broadcast frame differs from a direct encode")
	}
	encodes := int64(0)
	for labels, v := range reg.CounterValues(MetricCodecOps) {
		if v > 0 && labels != "" {
			encodes += v
		}
	}
	if encodes != 1 {
		t.Fatalf("broadcast performed %d codec ops, want exactly 1 encode", encodes)
	}
}

// TestTCPBinaryCodecStats runs a message exchange over a real TCP pair
// and checks the per-codec telemetry counts ops and exact wire bytes.
func TestTCPBinaryCodecStats(t *testing.T) {
	for _, codec := range []string{CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			l, err := ListenCodec("127.0.0.1:0", codec)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			cli, err := DialCodec(l.Addr(), codec)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			srv := <-accepted
			defer srv.Close()

			reg := obs.NewRegistry()
			if !SetConnMetrics(cli, reg) {
				t.Fatal("tcp conn did not accept metrics")
			}
			msg := &Message{Kind: KindReport, WID: 1, Grads: [][]float32{{1, 2, 3, 4, 5, 6, 7, 8}}}
			if err := cli.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != KindReport || len(got.Grads[0]) != 8 {
				t.Fatalf("mangled over %s: %+v", codec, got)
			}
			got.Release()
			ops := reg.CounterValues(MetricCodecOps)
			var encodes int64
			for labels, v := range ops {
				if v > 0 && containsAll(labels, "encode", codec, "report") {
					encodes += v
				}
			}
			if encodes != 1 {
				t.Fatalf("%s: encode ops = %d, want 1 (counters: %v)", codec, encodes, ops)
			}
			var bytesOut int64
			for labels, v := range reg.CounterValues(MetricCodecBytes) {
				if containsAll(labels, "encode", codec) {
					bytesOut += v
				}
			}
			want, _ := EncodeBinary(msg)
			if bytesOut != int64(len(want)) {
				t.Fatalf("binary: counted %d encoded bytes, frame is %d", bytesOut, len(want))
			}
		})
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !bytes.Contains([]byte(s), []byte(sub)) {
			return false
		}
	}
	return true
}

// FuzzBinaryDecode feeds arbitrary bytes to the binary decoder. It must
// never panic and never over-allocate; successfully decoded messages
// must re-encode and release cleanly.
func FuzzBinaryDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		data, err := EncodeBinary(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		mut := bytes.Clone(data)
		mut[len(mut)/3] ^= 0xff
		f.Add(mut)
	}
	oversize := []byte{frameMagic0, frameMagic1, frameVersion, 3, 0xff, 0xff, 0xff, 0x7f}
	f.Add(oversize)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Version-2 compressed frames: valid, truncated, and hostile-header
	// seeds per lossy codec.
	for _, codec := range []Compression{CompressFP16, CompressInt8, CompressTopK} {
		m := compressedSample()
		m.SetGradCodec(codec)
		data, err := EncodeBinary(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		badCodec := bytes.Clone(data)
		badCodec[8] = 0x7f
		f.Add(badCodec)
		badReserved := bytes.Clone(data)
		badReserved[10] = 1
		f.Add(badReserved)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBinary(data)
		if err != nil {
			if m != nil {
				t.Fatal("error with non-nil message")
			}
			if Classify(err) != ClassCodec {
				t.Fatalf("decode error classified %v, want codec", Classify(err))
			}
			return
		}
		if _, err := EncodeBinary(m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m.Release()
	})
}

// FuzzBinaryRoundTrip builds a message from fuzzed fields, encodes it
// with the binary codec, and checks that the frame round-trips exactly
// and that every truncation errors.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(int(KindReport), 2, 5, int64(9), 1.5, []byte{8, 4}, uint16(10))
	f.Add(int(KindIterStart), 0, 0, int64(0), 0.0, []byte{}, uint16(0))
	f.Add(int(KindJobDone), -3, 1<<30, int64(-1), -0.25, []byte{0}, uint16(3))
	f.Fuzz(func(t *testing.T, kind, wid, iter int, tokID int64, loss float64, gradBytes []byte, cut uint16) {
		m := &Message{
			Kind:  Kind(int(uint8(kind))), // the wire carries one kind byte
			WID:   wid,
			Iter:  iter,
			Token: TokenInfo{ID: int(tokID), Seq: iter, Lo: wid, Hi: wid + 8, Owner: wid},
			Loss:  loss,
			Err:   string(gradBytes),
		}
		grads := make([]float32, len(gradBytes))
		for i, b := range gradBytes {
			grads[i] = float32(b) / 3
		}
		if len(grads) > 0 {
			m.Grads = [][]float32{grads}
		}
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("decode of valid frame: %v", err)
		}
		got.pooled = nil
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mangled:\nwant %+v\ngot  %+v", m, got)
		}
		if n := int(cut) % (len(data) + 1); n < len(data) {
			if _, err := DecodeBinary(data[:n]); err == nil {
				t.Fatalf("truncation at %d/%d decoded without error", n, len(data))
			}
		}
	})
}
