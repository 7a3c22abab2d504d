package transport

import (
	"io"
	"strings"
	"sync"
	"testing"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	if err := a.Send(&Message{Kind: KindRequest, WID: 3}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindRequest || m.WID != 3 {
		t.Fatalf("got %+v", m)
	}
	// And the other direction.
	if err := b.Send(&Message{Kind: KindAssign, Token: TokenInfo{ID: 7, Lo: 8, Hi: 16}}); err != nil {
		t.Fatal(err)
	}
	m, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Token.ID != 7 || m.Token.Hi != 16 {
		t.Fatalf("got %+v", m)
	}
}

func TestPairOrdering(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	for i := 0; i < 20; i++ {
		if err := a.Send(&Message{Kind: KindReport, Iter: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Iter != i {
			t.Fatalf("out of order: got %d at position %d", m.Iter, i)
		}
	}
}

func TestPairClose(t *testing.T) {
	a, b := Pair()
	a.Close()
	if err := a.Send(&Message{}); err != ErrClosed {
		t.Fatalf("send on closed = %v", err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("recv on closed pair = %v", err)
	}
	// Double close is safe.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			serverErr = err
			return
		}
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			serverErr = err
			return
		}
		m.Iter++
		serverErr = c.Send(m)
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := &Message{
		Kind:   KindReport,
		WID:    2,
		Iter:   41,
		Token:  TokenInfo{ID: 5, Seq: 1, Lo: 16, Hi: 32, Owner: 2},
		Grads:  [][]float32{{1, 2, 3}, {4}},
		Params: [][]float32{{9, 8}},
	}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	if got.Iter != 42 || got.Token != want.Token || len(got.Grads) != 2 || got.Grads[0][2] != 3 {
		t.Fatalf("round trip mangled: %+v", got)
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Close()
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Recv(); err == nil {
		t.Fatal("expected error after peer close")
	}
}

// TestDialFailure: a refused port fails to dial, and a codec name other
// than CodecBinary is refused even when a listener is up.
func TestDialFailure(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cases := []struct {
		name string
		open func() (io.Closer, error)
	}{
		{"refused", func() (io.Closer, error) { return Dial("127.0.0.1:1") }},
		{"dial-gob", func() (io.Closer, error) { return DialCodec(l.Addr(), "gob") }},
		{"listen-gob", func() (io.Closer, error) { return ListenCodec("127.0.0.1:0", "gob") }},
	}
	for _, c := range cases {
		if cl, err := c.open(); err == nil {
			cl.Close()
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestKindTable is the single source of truth for protocol-kind
// coverage: one row per kind, checked against Kinds(), Kind.String and
// the codec tests' sampleMessages — a future kind added to the enum but
// forgotten anywhere else fails here.
func TestKindTable(t *testing.T) {
	table := []struct {
		kind Kind
		name string
	}{
		{KindRegister, "register"},
		{KindRequest, "request"},
		{KindAssign, "assign"},
		{KindReport, "report"},
		{KindIterStart, "iter-start"},
		{KindShutdown, "shutdown"},
		{KindJoin, "join"},
		{KindLeave, "leave"},
		{KindDrainAck, "drain-ack"},
		{KindSubmitJob, "submit-job"},
		{KindJobDone, "job-done"},
		{KindReassign, "reassign"},
	}
	if len(table) != len(Kinds()) {
		t.Fatalf("test table has %d kinds, Kinds() lists %d", len(table), len(Kinds()))
	}
	if len(sampleMessages()) != len(table) {
		t.Errorf("sampleMessages covers %d kinds, protocol has %d", len(sampleMessages()), len(table))
	}
	sampled := map[Kind]bool{}
	for _, m := range sampleMessages() {
		sampled[m.Kind] = true
	}
	seen := map[string]bool{}
	for i, row := range table {
		if Kinds()[i] != row.kind {
			t.Errorf("Kinds()[%d] = %v, want %v", i, Kinds()[i], row.kind)
		}
		if got := row.kind.String(); got != row.name {
			t.Errorf("%d.String() = %q, want %q", int(row.kind), got, row.name)
		}
		if seen[row.name] {
			t.Errorf("duplicate kind name %q", row.name)
		}
		seen[row.name] = true
		if !sampled[row.kind] {
			t.Errorf("sampleMessages has no %v message", row.kind)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestPairConcurrentTraffic(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send(&Message{Iter: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := 0
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	if got != n {
		t.Fatalf("received %d/%d", got, n)
	}
}
