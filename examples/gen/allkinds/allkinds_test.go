// Tests of the kitchen-sink generated package: every parameter kind
// survives the record and wire codecs, decode rejects mistyped values,
// and the empty-parameter primitive round-trips over RPC.
package allkinds_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/examples/gen/allkinds"
	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sdl"
	"repro/internal/sim"
)

// TestSpecMatchesCommittedSource pins generated spec against the .svc
// source, as for floorcontrol.
func TestSpecMatchesCommittedSource(t *testing.T) {
	spec := allkinds.Spec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	_, parsed, err := sdl.Parse(specs.AllKinds)
	if err != nil {
		t.Fatalf("parse committed source: %v", err)
	}
	if got, want := spec.Document(), parsed.Document(); got != want {
		t.Fatalf("generated spec diverges from committed source\ngenerated:\n%s\nsource:\n%s", got, want)
	}
}

// openRecord is the test oracle for the open parameter record: the
// generic dynamic record a hand-written caller would encode.
func openRecord(p allkinds.OpenParams) codec.Record {
	return codec.Record{"id": p.Id, "seq": p.Seq, "urgent": p.Urgent, "tags": codec.StringList(p.Tags)}
}

// decodeOpen encodes rec through the generic codec and reads it back
// with the generated view decoder.
func decodeOpen(t *testing.T, rec codec.Record) (allkinds.OpenParams, error) {
	t.Helper()
	data, err := codec.Append(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	return allkinds.DecodeOpenParams(v)
}

// TestRecordRoundTrip pins Append/Decode inverse-ness for every kind,
// including the string-list conversion.
func TestRecordRoundTrip(t *testing.T) {
	p := allkinds.OpenParams{
		Id:     "sess-1",
		Seq:    41,
		Urgent: true,
		Tags:   []string{"a", "b"},
	}
	data, err := allkinds.AppendOpenParams(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := codec.ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := allkinds.DecodeOpenParams(v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip changed params: %+v != %+v", got, p)
	}
	// Absent parameters decode to zero values.
	zero, err := decodeOpen(t, codec.Record{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, allkinds.OpenParams{}) {
		t.Fatalf("empty record decoded to %+v", zero)
	}
	// Int accepts the narrower machine types a dynamic encoder may be
	// handed: they share the wire form.
	widened, err := decodeOpen(t, codec.Record{"seq": int32(7)})
	if err != nil {
		t.Fatal(err)
	}
	if widened.Seq != 7 {
		t.Fatalf("int32 seq decoded to %d", widened.Seq)
	}
}

// TestDecodeErrors pins the mistyped-parameter rejections per kind.
func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		rec  codec.Record
		want string
	}{
		{"string", codec.Record{"id": 7}, "want string"},
		{"int", codec.Record{"seq": "x"}, "want int"},
		{"bool", codec.Record{"urgent": "yes"}, "want bool"},
		{"list", codec.Record{"tags": 3}, `parameter "tags"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeOpen(t, tc.rec)
			if err == nil {
				t.Fatal("mistyped parameter accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWireParity pins the schema fast path against the generic record
// codec for every primitive, covering sorted-field emission and the
// list value conversion.
func TestWireParity(t *testing.T) {
	check := func(name string, fast []byte, fastErr error, rec codec.Record) {
		t.Helper()
		if fastErr != nil {
			t.Fatalf("%s: append: %v", name, fastErr)
		}
		want, err := codec.Append(nil, rec)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(fast, want) {
			t.Fatalf("%s: schema path and record codec disagree", name)
		}
	}
	open := allkinds.OpenParams{Id: "s", Seq: 2, Urgent: true, Tags: []string{"x", "y"}}
	fast, err := allkinds.AppendOpenParams(nil, open)
	check("open", fast, err, openRecord(open))

	opened := allkinds.OpenedParams{Id: "s", Seq: 2}
	fast, err = allkinds.AppendOpenedParams(nil, opened)
	check("opened", fast, err, allkinds.EncodeOpenedParams(opened))

	cl := allkinds.CloseParams{Id: "s"}
	fast, err = allkinds.AppendCloseParams(nil, cl)
	check("close", fast, err, codec.Record{"id": cl.Id})

	ping := allkinds.PingParams{}
	fast, err = allkinds.AppendPingParams(nil, ping)
	check("ping", fast, err, codec.Record{})
}

// sessions implements the Provider face with trivial recording
// handlers.
type sessions struct {
	opens  []allkinds.OpenParams
	closes []string
	pings  int
}

func (s *sessions) Open(p allkinds.OpenParams, respond func(allkinds.Ack, error)) {
	s.opens = append(s.opens, p)
	respond(allkinds.Ack{}, nil)
}

func (s *sessions) Close(p allkinds.CloseParams, respond func(allkinds.Ack, error)) {
	s.closes = append(s.closes, p.Id)
	respond(allkinds.Ack{}, nil)
}

func (s *sessions) Ping(allkinds.PingParams, func(allkinds.Ack, error)) {}

// TestProviderRoundTrip exports the Provider face and drives every
// from-user primitive — including the parameterless one — through its
// generated port.
func TestProviderRoundTrip(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(5))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(k, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	plat := middleware.New(k, transport, middleware.ProfileCORBALike, "mw-broker")
	b, err := allkinds.Bind(plat, middleware.PatternRPC)
	if err != nil {
		t.Fatal(err)
	}
	prov := &sessions{}
	if _, err := allkinds.ExportProvider(b, "sessions", "node-s", prov); err != nil {
		t.Fatal(err)
	}
	openPort, err := allkinds.NewOpenPort(b, "sessions")
	if err != nil {
		t.Fatal(err)
	}
	closePort, err := allkinds.NewClosePort(b, "sessions")
	if err != nil {
		t.Fatal(err)
	}
	pingPort, err := allkinds.NewPingPort(b, "sessions")
	if err != nil {
		t.Fatal(err)
	}
	ack := func(allkinds.Ack, error) {}
	open := allkinds.OpenParams{Id: "s1", Seq: 1, Urgent: true, Tags: []string{"t"}}
	if err := openPort.Call("node-c", open, ack); err != nil {
		t.Fatal(err)
	}
	if err := closePort.Call("node-c", allkinds.CloseParams{Id: "s1"}, ack); err != nil {
		t.Fatal(err)
	}
	if err := pingPort.Call("node-c", allkinds.PingParams{}, ack); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(prov.opens) != 1 || !reflect.DeepEqual(prov.opens[0], open) {
		t.Fatalf("provider saw opens %+v", prov.opens)
	}
	if len(prov.closes) != 1 || prov.closes[0] != "s1" {
		t.Fatalf("provider saw closes %v", prov.closes)
	}
}
