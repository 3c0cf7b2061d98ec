package protocol

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/network"
)

// probeEntity reads a delivered PDU through every view accessor shape
// the protocol entities use, so fuzzed bytes exercise the whole decode
// surface behind FromPeer.
type probeEntity struct {
	ctx   *Context
	calls int
}

func (e *probeEntity) Init(ctx *Context) error { e.ctx = ctx; return nil }

func (e *probeEntity) FromUser(string, codec.Record) error { return nil }

func (e *probeEntity) FromPeer(_ Addr, pdu codec.MsgView) error {
	e.calls++
	_ = pdu.NameIs("pass")
	_, _ = pdu.Str("resid")
	_, _ = pdu.Int("seq")
	_, _ = pdu.Bool("available")
	if it, ok := pdu.StrList("available"); ok {
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
	}
	if args, ok := pdu.RecordView("args"); ok {
		_, _ = args.Str("subid")
		_, _ = args.Fields()
	}
	_, err := pdu.Fields()
	return err
}

// FuzzLayerPDU feeds arbitrary bytes into a layer's entity receive
// path, delivered by the lower service exactly as a peer's PDU would
// be. Invariants: no panic anywhere on the decode surface, a malformed
// PDU is dropped before it reaches the entity, and a well-formed one
// reaches FromPeer exactly once.
func FuzzLayerPDU(f *testing.F) {
	pass := codec.CompileSchema("pass", "available")
	e := pass.Encoder(nil)
	e.StrList("available", []string{"r0", "r1"})
	seed, _ := e.Finish()
	f.Add(seed)
	req := codec.CompileSchema("request", "resid", "subid").Encoder(nil)
	req.Str("resid", "r0")
	req.Str("subid", "s1")
	seed, _ = req.Finish()
	f.Add(seed)
	nested, _ := codec.EncodeMessage(codec.Message{Name: "call", Fields: codec.Record{
		"args": codec.Record{"subid": "s2", "n": int64(-3)}, "available": codec.List{"x", int64(1)},
	}})
	f.Add(nested)
	f.Add([]byte{})
	f.Add([]byte{0x06, 0x01, 'x', 0x09, 0x02, 0x06, 0x01, 'b', 0x00, 0x06, 0x01, 'a', 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		k, n := newNet(1, network.LinkConfig{Latency: time.Millisecond})
		lower := NewUnreliableDatagram(n)
		layer := NewLayer("fuzz", k, lower)
		dst, src := &probeEntity{}, &probeEntity{}
		if err := layer.AddEntity("a", dst); err != nil {
			t.Fatal(err)
		}
		if err := layer.AddEntity("b", src); err != nil {
			t.Fatal(err)
		}
		if err := lower.Send("b", "a", data); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := 1
		if _, err := codec.ParseMessage(data); err != nil {
			want = 0
		}
		if dst.calls != want {
			t.Fatalf("FromPeer ran %d times for % x, want %d", dst.calls, data, want)
		}
	})
}
