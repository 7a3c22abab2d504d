package transport

import (
	"fmt"
	"testing"
)

// benchIterStart builds an iter-start broadcast with n float32
// parameters split across a few VGG-ish tensor shapes — the hot frame
// the binary codec exists for.
func benchIterStart(n int) *Message {
	chunks := [][]float32{}
	for rem := n; rem > 0; {
		c := min(rem, 1<<16)
		s := make([]float32, c)
		for i := range s {
			s[i] = float32(i%113) * 0.25
		}
		chunks = append(chunks, s)
		rem -= c
	}
	return &Message{Kind: KindIterStart, Iter: 5, Params: chunks}
}

const benchFloats = 1 << 18 // 256k params ≈ 1 MiB payload: big enough to dominate

func BenchmarkCodecBinaryEncode(b *testing.B) {
	m := benchIterStart(benchFloats)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := framePool.Get().(*[]byte)
		buf, err := AppendFrame((*bp)[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		*bp = buf[:0]
		framePool.Put(bp)
	}
}

func BenchmarkCodecBinaryDecode(b *testing.B) {
	data, err := EncodeBinary(benchIterStart(benchFloats))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := DecodeBinary(data)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// BenchmarkCodecBinaryEncodeSmall covers the tiny control messages
// (request/assign/report headers) where fixed overhead, not bulk float
// copying, dominates.
func BenchmarkCodecBinaryEncodeSmall(b *testing.B) {
	m := &Message{Kind: KindAssign, Iter: 2, Token: TokenInfo{ID: 17, Seq: 3, Lo: 24, Hi: 32, Owner: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := framePool.Get().(*[]byte)
		buf, err := AppendFrame((*bp)[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		*bp = buf[:0]
		framePool.Put(bp)
	}
}

// TestBenchHelpersShape sanity-checks the benchmark payload builder so a
// silent change there cannot skew codec comparisons.
func TestBenchHelpersShape(t *testing.T) {
	m := benchIterStart(benchFloats)
	total := 0
	for _, p := range m.Params {
		total += len(p)
	}
	if total != benchFloats {
		t.Fatalf("benchIterStart carries %d floats, want %d", total, benchFloats)
	}
	if got := fmt.Sprint(m.Kind); got != "iter-start" {
		t.Fatalf("benchmark message kind %q", got)
	}
}
