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

// nonblockingRoundTripAllocs is the pinned allocation count of the same
// warm internode round trip when both sides use Irecv, Isend and Wait,
// on tag 1: 38 for the protocol as above, plus per operation its Request
// (one object: the completion cond is a value field) and the cond's
// waiter list, which the Wait that parks on it grows from nil. The
// send and receive bodies run on pooled helper tasks, and the WithTag
// options resolve on the stack. The count is exact.
const nonblockingRoundTripAllocs = 46

// intranodeRoundTripAllocs is the pinned allocation count of a warm
// intranode round trip between two processes of one node: per send its
// sendOp, inboundMsg and received buffer. The count is exact and the
// same for a 10 B message, pushed whole, and for a 16 KiB one whose
// remainder a pooled kernel task pulls.
const intranodeRoundTripAllocs = 6

// warmPingPong sets up the round trip the pins measure and warms it up:
// the ping thread (a) waits on a gate, sends size bytes to b and
// receives the echo; the pong thread (b) echoes. With nonblocking set
// both sides use Irecv, Isend and Wait, on tag 1, instead of Send and
// Recv. roundTrip runs one round trip to completion.
func warmPingPong(t *testing.T, c *cluster.Cluster, a, b *comm.Comm, size int, nonblocking bool) (roundTrip func()) {
	e := c.Engine
	msg := pattern(size, 1)
	gate := sim.NewCond(e)
	rounds := 0
	send := func(th *smp.Thread, from, to *comm.Comm, data []byte) error {
		if nonblocking {
			_, err := from.Isend(th, to.ID(), data, comm.WithTag(1)).Wait(th)
			return err
		}
		return from.Send(th, to.ID(), data)
	}
	recv := func(th *smp.Thread, at, from *comm.Comm) ([]byte, error) {
		if nonblocking {
			return at.Irecv(th, from.ID(), size, comm.WithTag(1)).Wait(th)
		}
		return at.Recv(th, from.ID(), size)
	}
	c.Spawn(a.ID().Node, a.Endpoint().CPU, "ping", func(th *smp.Thread) {
		for {
			gate.Wait(th.P)
			if nonblocking {
				// Post the receive first, so the echo never waits in
				// the pushed buffer.
				rop := a.Irecv(th, b.ID(), size, comm.WithTag(1))
				sop := a.Isend(th, b.ID(), msg, comm.WithTag(1))
				if err := comm.WaitAll(th, sop, rop); err != nil {
					t.Error(err)
					return
				}
			} else {
				if err := send(th, a, b, msg); err != nil {
					t.Error(err)
					return
				}
				if _, err := recv(th, a, b); err != nil {
					t.Error(err)
					return
				}
			}
			rounds++
			e.Stop()
		}
	})
	c.Spawn(b.ID().Node, b.Endpoint().CPU, "pong", func(th *smp.Thread) {
		for {
			got, err := recv(th, b, a)
			if err == nil {
				err = send(th, b, a, got)
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
	return roundTrip
}

// warmInternode is the internode round trip of 1400 B.
func warmInternode(t *testing.T, nonblocking bool) (*cluster.Cluster, func()) {
	c := twoNode()
	return c, warmPingPong(t, c, comm.At(c, 0, 0), comm.At(c, 1, 0), 1400, nonblocking)
}

// TestInternodeRoundTripAllocs pins the clean path's per-round-trip
// allocations, so a fresh closure or goroutine per frame cannot slip
// back onto it unnoticed.
func TestInternodeRoundTripAllocs(t *testing.T) {
	c, roundTrip := warmInternode(t, false)
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
	c, roundTrip := warmInternode(t, false)
	defer c.Shutdown()
	for i := 0; i < 10; i++ {
		before := c.Engine.Handoffs()
		roundTrip()
		if got := c.Engine.Handoffs() - before; got != roundTripHandoffs {
			t.Fatalf("round trip %d took %d goroutine switches, want %d", i, got, roundTripHandoffs)
		}
	}
}

// TestInternodeIsendIrecvAllocs pins a warm nonblocking round trip's
// allocations and its goroutine switches: the helpers that run the
// operations are pooled tasks, so they add no switch to the blocking
// round trip's 4.
func TestInternodeIsendIrecvAllocs(t *testing.T) {
	c, roundTrip := warmInternode(t, true)
	defer c.Shutdown()
	got := testing.AllocsPerRun(200, roundTrip)
	t.Logf("%.2f allocations per round trip", got)
	if got > nonblockingRoundTripAllocs {
		t.Fatalf("a warm nonblocking round trip allocates %.2f objects, want at most %d", got, nonblockingRoundTripAllocs)
	}
	before := c.Engine.Handoffs()
	roundTrip()
	if got := c.Engine.Handoffs() - before; got != roundTripHandoffs {
		t.Fatalf("a warm nonblocking round trip took %d goroutine switches, want %d", got, roundTripHandoffs)
	}
}

// TestIntranodeRoundTripAllocs pins the blocking intranode path the
// intranode-small benchmark runs (10 B) and the pulled one (16 KiB).
func TestIntranodeRoundTripAllocs(t *testing.T) {
	for _, size := range []int{10, 16 << 10} {
		c := intranode()
		roundTrip := warmPingPong(t, c, comm.At(c, 0, 0), comm.At(c, 0, 1), size, false)
		got := testing.AllocsPerRun(200, roundTrip)
		c.Shutdown()
		t.Logf("%d B: %.2f allocations per round trip", size, got)
		if got > intranodeRoundTripAllocs {
			t.Fatalf("a warm %d B intranode round trip allocates %.2f objects, want at most %d", size, got, intranodeRoundTripAllocs)
		}
	}
}
