package comm_test

import (
	"testing"

	"pushpull/comm"
	"pushpull/internal/cluster"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// roundTripAllocs is the pinned allocation count of one warmed-up
// back-to-back internode ping-pong round trip of 1400 B. It covers both
// sends and receives and every frame between them: the pushes, the
// go-back-N acknowledgements, and the receive interrupt each frame
// raises. A receive interrupt allocates nothing (its handler runs on a
// pooled task) and neither does a posted receive (its op and cond are
// recycled); what is left is the received copy Recv returns, the
// per-message protocol state, and the wire messages boxed into frame
// payloads. The count is exact: 38, against 42 when every send and
// receive built the buffer's physical scatter list, 66 when every
// receive interrupt ran on a fresh sim.Process and every receive made a
// new op and cond, and 242 when every interrupt started a fresh
// goroutine and every frame hop scheduled a fresh closure.
const roundTripAllocs = 38

// roundTripHandoffs is the pinned number of goroutine switches in one
// warm round trip: the Run caller wakes the ping thread, the ping thread
// parks in Recv and the pong thread takes over, the pong thread parks
// and the ping thread resumes, and the ping thread stops the run and
// hands control home. Every receive handler runs on the tasklet tier,
// inline in whichever goroutine holds control; a handler back on a
// process would add at least one switch per frame.
const roundTripHandoffs = 4

// warmPingPong sets up the round trip both pins measure and warms it up:
// the ping thread waits on a gate, sends 1400 B and receives the echo;
// the pong thread echoes. roundTrip runs one round trip to completion.
func warmPingPong(t *testing.T) (c *cluster.Cluster, roundTrip func()) {
	c = twoNode()
	e := c.Engine
	a, b := comm.At(c, 0, 0), comm.At(c, 1, 0)
	msg := pattern(1400, 1)
	gate := sim.NewCond(e)
	rounds := 0
	c.Spawn(0, 0, "ping", func(th *smp.Thread) {
		for {
			gate.Wait(th.P)
			if err := a.Send(th, b.ID(), msg); err != nil {
				t.Error(err)
				return
			}
			if _, err := a.Recv(th, b.ID(), len(msg)); err != nil {
				t.Error(err)
				return
			}
			rounds++
			e.Stop()
		}
	})
	c.Spawn(1, 0, "pong", func(th *smp.Thread) {
		for {
			got, err := b.Recv(th, a.ID(), len(msg))
			if err == nil {
				err = b.Send(th, a.ID(), got)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	// A far-future event keeps every run from draining the engine, so the
	// idle process carriers stay warm between round trips.
	e.At(sim.Time(1000*sim.Second), sim.PriorityNormal, func() {})
	e.RunUntil(0)
	roundTrip = func() {
		want := rounds + 1
		gate.Signal()
		c.Run()
		if rounds != want {
			t.Fatalf("round trip %d did not complete", want)
		}
	}
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	return c, roundTrip
}

// TestInternodeRoundTripAllocs pins the clean path's per-round-trip
// allocations, so a fresh closure or goroutine per frame cannot slip
// back onto it unnoticed.
func TestInternodeRoundTripAllocs(t *testing.T) {
	c, roundTrip := warmPingPong(t)
	defer c.Shutdown()
	got := testing.AllocsPerRun(200, roundTrip)
	t.Logf("%.2f allocations per round trip", got)
	if got > roundTripAllocs {
		t.Fatalf("a warm internode round trip allocates %.2f objects, want at most %d", got, roundTripAllocs)
	}
}

// TestInternodeRoundTripHandoffs pins the goroutine switches of a warm
// round trip, so no receive handler can slip back onto a process.
func TestInternodeRoundTripHandoffs(t *testing.T) {
	c, roundTrip := warmPingPong(t)
	defer c.Shutdown()
	for i := 0; i < 10; i++ {
		before := c.Engine.Handoffs()
		roundTrip()
		if got := c.Engine.Handoffs() - before; got != roundTripHandoffs {
			t.Fatalf("round trip %d took %d goroutine switches, want %d", i, got, roundTripHandoffs)
		}
	}
}
