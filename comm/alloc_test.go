package comm_test

import (
	"testing"

	"pushpull/comm"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// roundTripAllocs is the pinned allocation count of one warmed-up
// back-to-back internode ping-pong round trip of 1400 B. It covers both
// sends and receives and every frame between them: the pushes, the
// go-back-N acknowledgements, and the receive interrupt each frame
// raises. Each receive interrupt allocates only its handler's
// sim.Process; the rest is the received copy Recv returns, the
// per-message protocol state, and the wire messages boxed into frame
// payloads. The count is exact: 66, against 70 when each send and
// receive validated its buffer by building a scatter list it threw away,
// and 242 when every interrupt started a fresh goroutine and every frame
// hop scheduled a fresh closure.
const roundTripAllocs = 66

// TestInternodeRoundTripAllocs pins the clean path's per-round-trip
// allocations, so a fresh closure or goroutine per frame cannot slip
// back onto it unnoticed.
func TestInternodeRoundTripAllocs(t *testing.T) {
	c := twoNode()
	defer c.Shutdown()
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
	roundTrip := func() {
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
	got := testing.AllocsPerRun(200, roundTrip)
	t.Logf("%.2f allocations per round trip", got)
	if got > roundTripAllocs {
		t.Fatalf("a warm internode round trip allocates %.2f objects, want at most %d", got, roundTripAllocs)
	}
}
