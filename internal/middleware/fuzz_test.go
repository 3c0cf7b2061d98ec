package middleware_test

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// pingArgs is the record layout of the fuzz service's requests/replies.
var pingArgs = codec.CompileRecord("n")

type ping struct{ N int64 }

func appendPing(dst []byte, p ping) ([]byte, error) {
	e := pingArgs.Encoder(dst)
	e.Int("n", p.N)
	return e.Finish()
}

func decodePing(v codec.MsgView) (ping, error) {
	n, _ := v.Int("n")
	return ping{N: n}, nil
}

// wireSeeds are well-formed wire messages of every implicit-protocol
// type, aimed at the fuzz stack's export, pending call and broker.
func wireSeeds() [][]byte {
	msg := func(name string, fields codec.Record) []byte {
		data, err := codec.AppendMessage(nil, codec.Message{Name: name, Fields: fields})
		if err != nil {
			panic(err)
		}
		return data
	}
	return [][]byte{
		msg("mw.call", codec.Record{"args": codec.Record{"n": int64(4)}, "id": uint64(9), "op": "ping", "target": "server"}),
		msg("mw.call", codec.Record{"args": codec.Record{"n": "x"}, "id": uint64(9), "op": "warp", "target": "server"}),
		msg("mw.reply", codec.Record{"id": uint64(1), "result": codec.Record{"n": int64(2)}}),
		msg("mw.reply", codec.Record{"error": "boom", "id": uint64(1)}),
		msg("mw.reply", codec.Record{"id": uint64(1), "result": "not a record"}),
		msg("mw.oneway", codec.Record{"args": codec.Record{}, "op": "ping", "target": "server"}),
		msg("mw.publish", codec.Record{"fields": codec.Record{}, "name": "e", "topic": "t"}),
		msg("mw.enqueue", codec.Record{"fields": codec.Record{}, "name": "j", "queue": "q"}),
		{0x06, 0x07, 'm', 'w', '.', 'c', 'a', 'l', 'l', 0x09, 0x01},
		{},
	}
}

// FuzzPlatformWire feeds arbitrary bytes into a live platform's wire
// receive path, at both the server node (hosting a registered svc
// export) and the client node (holding a pending call). Invariants: no
// panic; the pending call resolves exactly once — forged replies may
// resolve it early, but nothing may wedge or double-fire it; and a
// message that fails to parse is dropped without touching the
// platform's counters.
func FuzzPlatformWire(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add(s)
	}
	spec := &core.ServiceSpec{
		Name: "fuzz",
		Primitives: []core.PrimitiveDef{
			{Name: "ping", Direction: core.FromUser, Params: []core.ParamDef{{Name: "n", Kind: core.KindInt}}},
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sim.NewKernel(sim.WithSeed(1))
		net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
		profile := middleware.ProfileCORBALike
		profile.CallTimeout = 50 * time.Millisecond
		p := middleware.New(k, protocol.NewUnreliableDatagram(net), profile, "broker")
		service, err := svc.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := service.Bind(p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := b.NewExport("server", "node-s")
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.HandleOp(e, "ping", decodePing, appendPing,
			func(req ping, respond func(ping, error)) { respond(ping{N: req.N + 1}, nil) }); err != nil {
			t.Fatal(err)
		}
		if err := e.Register(); err != nil {
			t.Fatal(err)
		}
		port, err := svc.NewPort(b, "server", "ping", appendPing, decodePing)
		if err != nil {
			t.Fatal(err)
		}
		resolved := 0
		if err := port.Call("node-c", ping{N: 1}, func(ping, error) { resolved++ }); err != nil {
			t.Fatal(err)
		}

		_, parseErr := codec.ParseMessage(data)
		before := p.Stats()
		for _, at := range []middleware.Addr{"node-s", "node-c", "broker"} {
			if err := p.HandleWire("node-c", at, data); err != nil {
				t.Fatal(err)
			}
		}
		if parseErr != nil && p.Stats() != before {
			t.Fatalf("malformed % x changed platform counters: %+v → %+v", data, before, p.Stats())
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if resolved != 1 {
			t.Fatalf("pending call resolved %d times after % x, want exactly once", resolved, data)
		}
	})
}
