// Genfloor: drive the sdlgen-generated floor-control binding end to
// end — the toolchain counterpart of examples/quickstart. Where
// quickstart programs against the hand-written internal/floorcontrol
// package, this example uses only the package generated from
// examples/specs/floorcontrol.svc: typed ports for request/free, a
// typed oneway sink for granted, and the Provider/Consumer faces.
//
//	go run ./examples/genfloor
package main

import (
	"fmt"
	"os"
	"time"

	"repro/examples/gen/floorcontrol"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// controller is the provider face: it grants every request immediately
// (one subscriber, no contention) and records the traffic.
type controller struct {
	granted *svc.Sink[floorcontrol.GrantedParams]
	grants  int
	frees   int
	err     error
}

func (c *controller) Request(req floorcontrol.RequestParams, respond func(floorcontrol.Ack, error)) {
	respond(floorcontrol.Ack{}, nil)
	c.grants++
	if err := c.granted.Send("node-ctl", floorcontrol.GrantedParams{Resid: req.Resid}); err != nil {
		c.err = err
	}
}

func (c *controller) Free(floorcontrol.FreeParams, func(floorcontrol.Ack, error)) {
	c.frees++
}

// user is the consumer face: on each grant it holds the floor for one
// virtual millisecond, then frees it and requests again.
type user struct {
	k       *sim.Kernel
	request *svc.Port[floorcontrol.RequestParams, floorcontrol.Ack]
	free    *svc.Port[floorcontrol.FreeParams, floorcontrol.Ack]
	cycles  int
	target  int
	err     error
}

func (u *user) Granted(g floorcontrol.GrantedParams, respond func(floorcontrol.Ack, error)) {
	respond(floorcontrol.Ack{}, nil)
	u.k.Schedule(time.Millisecond, func() {
		if err := u.free.Call("node-user", floorcontrol.FreeParams{Resid: g.Resid}, u.onAck); err != nil {
			u.err = err
			return
		}
		u.cycles++
		if u.cycles < u.target {
			if err := u.request.Call("node-user", floorcontrol.RequestParams{Resid: g.Resid}, u.onAck); err != nil {
				u.err = err
			}
		}
	})
}

func (u *user) onAck(floorcontrol.Ack, error) {}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "genfloor:", err)
		os.Exit(1)
	}
}

func run() error {
	// The generated package carries the full service definition.
	fmt.Println(floorcontrol.Spec().Document())

	// Simulated platform: 1ms network, reliable datagrams, CORBA-like
	// profile (RPC + oneway).
	k := sim.NewKernel(sim.WithSeed(7))
	net := network.New(k, network.WithDefaultLink(network.LinkConfig{Latency: time.Millisecond}))
	transport := protocol.NewReliableDatagram(k, protocol.NewUnreliableDatagram(net), protocol.ReliableDatagramConfig{})
	plat := middleware.New(k, transport, middleware.ProfileCORBALike, "mw-broker")

	b, err := floorcontrol.Bind(plat, middleware.PatternRPC, middleware.PatternOneway)
	if err != nil {
		return err
	}

	// Consumer side: the subscriber object plus its typed ports.
	u := &user{k: k, target: 3}
	if _, err := floorcontrol.ExportConsumer(b, "user-1", "node-user", u); err != nil {
		return err
	}
	if u.request, err = floorcontrol.NewRequestPort(b, "controller"); err != nil {
		return err
	}
	if u.free, err = floorcontrol.NewFreePort(b, "controller"); err != nil {
		return err
	}

	// Provider side: the controller object plus its grant sink.
	ctl := &controller{}
	if ctl.granted, err = floorcontrol.NewGrantedSink(b, "user-1"); err != nil {
		return err
	}
	if _, err := floorcontrol.ExportProvider(b, "controller", "node-ctl", ctl); err != nil {
		return err
	}

	if err := u.request.Call("node-user", floorcontrol.RequestParams{Resid: "camera"}, u.onAck); err != nil {
		return err
	}
	if _, err := k.Run(); err != nil {
		return err
	}
	if u.err != nil {
		return u.err
	}
	if ctl.err != nil {
		return ctl.err
	}

	fmt.Printf("completed %d acquire/hold/release cycles in %v of virtual time\n", u.cycles, k.Now())
	fmt.Printf("controller: %d grants, %d frees\n", ctl.grants, ctl.frees)
	if u.cycles != u.target || ctl.grants != u.target || ctl.frees != u.target {
		return fmt.Errorf("expected %d full cycles", u.target)
	}
	fmt.Println("generated binding round-trips: typed ports, sinks, and exports all via sdlgen output")
	return nil
}
