package protocol

import (
	"bytes"
	"errors"
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
	nested, _ := codec.AppendMessage(nil, codec.Message{Name: "call", Fields: codec.Record{
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

// codecErrs are the typed errors a malformed wire frame classifies as.
var codecErrs = []error{
	codec.ErrTruncated, codec.ErrBadTag, codec.ErrDepth, codec.ErrTrailing,
	codec.ErrSize, codec.ErrNonCanonical,
}

// FuzzReliableLower feeds arbitrary bytes into a reliable-datagram
// layer's lower receive path (onLowerIndexed) on a live stack whose
// a→b flow has already carried traffic. Invariants: no panic; a frame
// the codec rejects fails with a typed codec error and is dropped with
// no effect; a well-formed rdp.data with a sequence number is
// classified (delivered, duplicate, held or stale) and anything it
// delivers first is its own payload; nothing else reaches the receiver;
// and the input bytes are unchanged afterwards — delivered payloads are
// read-only, which is what lets the network share one copy among every
// destination of a send.
func FuzzReliableLower(f *testing.F) {
	data := schemaRdpData.Encoder(nil)
	data.Bytes("payload", []byte("next"))
	data.Uint("seq", 1)
	seed, _ := data.Finish()
	f.Add(seed)
	dataInc := schemaRdpDataInc.Encoder(nil)
	dataInc.Uint("inc", 2)
	dataInc.Bytes("payload", []byte("restarted"))
	dataInc.Uint("rinc", 1)
	dataInc.Uint("seq", 0)
	seed, _ = dataInc.Finish()
	f.Add(seed)
	ack := schemaRdpAck.Encoder(nil)
	ack.Uint("cum", 1)
	seed, _ = ack.Finish()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x06, 0x08, 'r', 'd', 'p', '.', 'd', 'a', 't', 'a'})

	f.Fuzz(func(t *testing.T, pdu []byte) {
		k, n := newNet(1, network.LinkConfig{Latency: time.Millisecond})
		rd := NewReliableDatagram(k, NewUnreliableDatagram(n), ReliableDatagramConfig{})
		var got [][]byte
		a, err := rd.AttachIndexed("a", func(int32, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rd.AttachIndexed("b", func(_ int32, p []byte) {
			got = append(got, append([]byte(nil), p...))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.SendIndexed(a, b, []byte("warm")); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		before := rd.Stats()
		orig := append([]byte(nil), pdu...)

		rd.onLowerIndexed(rd.eps[a].lowID, b, pdu)
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(pdu, orig) {
			t.Fatalf("receive path wrote into its input: % x became % x", orig, pdu)
		}
		after := rd.Stats()
		v, perr := codec.ParseMessage(orig)
		seq := false
		if perr == nil && v.NameIs("rdp.data") {
			_, seq = v.Uint("seq")
		}
		switch {
		case perr != nil:
			typed := false
			for _, e := range codecErrs {
				typed = typed || errors.Is(perr, e)
			}
			if !typed {
				t.Fatalf("rejected frame % x carries an untyped error: %v", orig, perr)
			}
			if after != before || len(got) != 0 {
				t.Fatalf("rejected frame % x had an effect: stats %+v → %+v, %d deliveries", orig, before, after, len(got))
			}
		case seq:
			moved := after.DataDelivered + after.Duplicates + after.OutOfOrder + after.StaleDrops -
				(before.DataDelivered + before.Duplicates + before.OutOfOrder + before.StaleDrops)
			if moved == 0 {
				t.Fatalf("data PDU % x was neither delivered, duplicate, held nor stale", orig)
			}
			if len(got) > 0 {
				payload, _ := v.Bytes("payload")
				if !bytes.Equal(got[0], payload) {
					t.Fatalf("delivered %q, want the PDU's payload %q", got[0], payload)
				}
			}
		default:
			if len(got) != 0 {
				t.Fatalf("non-data frame % x delivered %d payloads", orig, len(got))
			}
		}
	})
}
