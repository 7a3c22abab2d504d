// Command gencorpus regenerates the committed fuzz corpus for the
// transport's binary wire decoder (FuzzBinaryDecode) under
// internal/transport/testdata/fuzz: one valid frame per protocol kind,
// truncated and bit-flipped variants of each, plus hostile-header and
// oversized-length seeds. Run from the repo root:
//
//	go run ./internal/transport/gencorpus
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"fela/internal/transport"
)

func main() {
	msgs := []*transport.Message{
		{Kind: transport.KindRegister, WID: 3},
		{Kind: transport.KindRequest, WID: 1, Iter: 4},
		{Kind: transport.KindAssign, Iter: 2, Token: transport.TokenInfo{ID: 17, Seq: 3, Lo: 24, Hi: 32, Owner: 1}},
		{Kind: transport.KindReport, WID: 2, Iter: 5, Token: transport.TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16},
			Grads: [][]float32{{1.5, -2.25}, {0.125}}, Loss: 0.75},
		{Kind: transport.KindIterStart, Iter: 7, Params: [][]float32{{3, 1, 4}, {1, 5}}},
		{Kind: transport.KindShutdown},
	}
	writeCorpus := func(target string, extra map[string][]byte) {
		dir := filepath.Join("internal", "transport", "testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		n := 0
		emit := func(name string, data []byte) {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				fatal(err)
			}
			n++
		}
		for _, m := range msgs {
			data, err := transport.EncodeBinary(m)
			if err != nil {
				fatal(err)
			}
			kind := m.Kind.String()
			emit("valid-"+kind, data)
			emit("truncated-"+kind, data[:len(data)/2])
			garbled := append([]byte(nil), data...)
			garbled[len(garbled)/3] ^= 0xff
			emit("garbled-"+kind, garbled)
		}
		emit("empty", nil)
		emit("noise", []byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x7f})
		for name, data := range extra {
			emit(name, data)
		}
		fmt.Printf("gencorpus: wrote %d corpus entries to %s\n", n, dir)
	}
	binExtra := map[string][]byte{
		// A header whose declared payload length is far beyond the bytes
		// present: must be rejected before any allocation.
		"oversized-length": {0xFE, 0x7A, 1, 3, 0xff, 0xff, 0xff, 0x0f},
		// Wrong magic and an unsupported version.
		"bad-magic":   {0x00, 0x7A, 1, 0, 0, 0, 0, 0},
		"bad-version": {0xFE, 0x7A, 9, 0, 0, 0, 0, 0},
	}
	// Version-2 (compressed-gradient) seeds: a valid and a truncated
	// frame per lossy codec, plus hostile header variants.
	report := &transport.Message{
		Kind: transport.KindReport, WID: 2, Iter: 5,
		Token: transport.TokenInfo{ID: 9, Seq: 1, Lo: 8, Hi: 16},
		Grads: [][]float32{{1.5, -2.25, 0, 3, -3, 0.5, 0.125, -8, 7.25}, {0.125}},
		Loss:  0.75,
	}
	for _, codec := range []transport.Compression{
		transport.CompressFP16, transport.CompressInt8, transport.CompressTopK,
	} {
		report.SetGradCodec(codec)
		data, err := transport.EncodeBinary(report)
		if err != nil {
			fatal(err)
		}
		binExtra["compressed-"+codec.String()] = data
		binExtra["compressed-truncated-"+codec.String()] = data[:len(data)/2]
	}
	report.SetGradCodec(transport.CompressTopK)
	v2, err := transport.EncodeBinary(report)
	if err != nil {
		fatal(err)
	}
	badCodec := append([]byte(nil), v2...)
	badCodec[8] = 0x7f // unknown gradient codec id
	binExtra["compressed-bad-codec"] = badCodec
	badReserved := append([]byte(nil), v2...)
	badReserved[9] = 0x5a // reserved header bytes must be zero
	binExtra["compressed-bad-reserved"] = badReserved
	// A top-k section whose dense length dwarfs its kept count: must be
	// rejected in the pre-allocation scan. The report payload carries 7
	// zero varints and 8 loss bytes before the grads section claims an
	// expansion to 1<<30 floats against a single kept entry.
	hostile := []byte{
		0xFE, 0x7A, 2, 3, 22, 0, 0, 0, // v2 header, kind report, payload 22
		byte(transport.CompressTopK), 0, 0, 0,
	}
	hostile = append(hostile, make([]byte, 7+8)...) // WID..Owner varints + loss
	hostile = append(hostile,
		1,                            // one slice
		0x80, 0x80, 0x80, 0x80, 0x04, // dense length 1<<30
		1, // k = 1
	)
	binExtra["compressed-topk-oversized"] = hostile
	writeCorpus("FuzzBinaryDecode", binExtra)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gencorpus:", err)
	os.Exit(1)
}
