package pushpull_test

import (
	"bytes"
	"testing"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

func TestIsendIrecvRoundTrip(t *testing.T) {
	for _, intra := range []bool{false, true} {
		var c *cluster.Cluster
		rNode, rProc := 1, 0
		if intra {
			c = intranodeCluster(pushpull.DefaultOptions())
			rNode, rProc = 0, 1
		} else {
			c = internodeCluster(pushpull.DefaultOptions())
		}
		sender := c.Endpoint(0, 0)
		receiver := c.Endpoint(rNode, rProc)
		data := pattern(5000, 4)
		src := sender.Alloc(len(data))
		dst := receiver.Alloc(len(data))
		var got []byte
		c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
			req := sender.Isend(th, receiver.ID, src, data)
			if _, err := req.Wait(th); err != nil {
				t.Errorf("isend: %v", err)
			}
		})
		c.Nodes[rNode].Spawn("receiver", receiver.CPU, func(th *smp.Thread) {
			req := receiver.Irecv(th, sender.ID, dst, len(data))
			b, err := req.Wait(th)
			if err != nil {
				t.Errorf("irecv: %v", err)
				return
			}
			got = b
		})
		c.Run()
		if !bytes.Equal(got, data) {
			t.Errorf("intra=%v: received bytes differ", intra)
		}
	}
}

// Isend must return to the caller without waiting for the transfer: the
// caller overlaps computation with communication, finishing its compute
// while the message is still in flight.
func TestIsendOverlapsComputation(t *testing.T) {
	c := internodeCluster(pushpull.DefaultOptions())
	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(1, 0)
	data := pattern(8192, 6)
	src := sender.Alloc(len(data))
	dst := receiver.Alloc(len(data))

	var postedAt, computedAt, waitedAt sim.Time
	c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
		req := sender.Isend(th, receiver.ID, src, data)
		postedAt = th.Now()
		th.Compute(1000) // 5 µs of application work
		computedAt = th.Now()
		if _, err := req.Wait(th); err != nil {
			t.Errorf("isend: %v", err)
		}
		waitedAt = th.Now()
	})
	c.Nodes[1].Spawn("receiver", receiver.CPU, func(th *smp.Thread) {
		if _, err := receiver.Recv(th, sender.ID, dst, len(data)); err != nil {
			t.Errorf("recv: %v", err)
		}
	})
	c.Run()

	if postedAt > sim.Time(10*sim.Microsecond) {
		t.Errorf("Isend blocked the caller until %v", postedAt)
	}
	if computedAt.Sub(postedAt) < sim.Duration(1000)*5 {
		t.Errorf("compute finished too fast: %v", computedAt.Sub(postedAt))
	}
	if waitedAt < computedAt {
		t.Error("Wait returned before the compute that preceded it")
	}
}

func TestTestPollsWithoutBlocking(t *testing.T) {
	c := internodeCluster(pushpull.DefaultOptions())
	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(1, 0)
	data := pattern(1400, 8)
	src := sender.Alloc(len(data))
	dst := receiver.Alloc(len(data))

	sawIncomplete := false
	var got []byte
	c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
		if err := sender.Send(th, receiver.ID, src, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	c.Nodes[1].Spawn("receiver", receiver.CPU, func(th *smp.Thread) {
		req := receiver.Irecv(th, sender.ID, dst, len(data))
		for {
			ok, b, err := req.Test()
			if err != nil {
				t.Errorf("test: %v", err)
				return
			}
			if ok {
				got = b
				return
			}
			sawIncomplete = true
			th.Exec(500 * sim.Nanosecond) // poll loop
		}
	})
	c.Run()
	if !bytes.Equal(got, data) {
		t.Error("received bytes differ")
	}
	if !sawIncomplete {
		t.Error("Test never reported an incomplete request; polling was not exercised")
	}
}

// Two Irecvs posted back to back bind the channel's messages in posting
// order even though they complete through helper tasks.
func TestIrecvPostingOrderIsFIFO(t *testing.T) {
	c := internodeCluster(pushpull.DefaultOptions())
	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(1, 0)
	first := pattern(2000, 1)
	second := pattern(2000, 2)
	src1 := sender.Alloc(len(first))
	src2 := sender.Alloc(len(second))
	dst1 := receiver.Alloc(len(first))
	dst2 := receiver.Alloc(len(second))

	var got1, got2 []byte
	c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
		if err := sender.Send(th, receiver.ID, src1, first); err != nil {
			t.Errorf("send 1: %v", err)
		}
		if err := sender.Send(th, receiver.ID, src2, second); err != nil {
			t.Errorf("send 2: %v", err)
		}
	})
	c.Nodes[1].Spawn("receiver", receiver.CPU, func(th *smp.Thread) {
		r1 := receiver.Irecv(th, sender.ID, dst1, len(first))
		r2 := receiver.Irecv(th, sender.ID, dst2, len(second))
		var err error
		if got1, err = r1.Wait(th); err != nil {
			t.Errorf("wait 1: %v", err)
		}
		if got2, err = r2.Wait(th); err != nil {
			t.Errorf("wait 2: %v", err)
		}
	})
	c.Run()
	if !bytes.Equal(got1, first) {
		t.Error("first Irecv did not get the first message")
	}
	if !bytes.Equal(got2, second) {
		t.Error("second Irecv did not get the second message")
	}
}

func TestWaitAllCollectsFirstError(t *testing.T) {
	c := internodeCluster(pushpull.DefaultOptions())
	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(1, 0)
	big := pattern(4000, 3)
	src := sender.Alloc(len(big))
	small := receiver.Alloc(100) // too small: the receive must fail

	var err error
	c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
		req := sender.Isend(th, receiver.ID, src, big)
		if _, e := req.Wait(th); e != nil {
			t.Errorf("isend: %v", e)
		}
	})
	c.Nodes[1].Spawn("receiver", receiver.CPU, func(th *smp.Thread) {
		req := receiver.Irecv(th, sender.ID, small, 100)
		err = pushpull.WaitAll(th, req)
	})
	c.Run()
	if err == nil {
		t.Error("WaitAll returned nil for an oversized message")
	}
}

// Waiting on an already-completed request returns immediately with the
// same outcome, any number of times.
func TestWaitIdempotent(t *testing.T) {
	c := intranodeCluster(pushpull.DefaultOptions())
	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(0, 1)
	data := pattern(64, 9)
	src := sender.Alloc(len(data))
	dst := receiver.Alloc(len(data))
	c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
		if err := sender.Send(th, receiver.ID, src, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	c.Nodes[0].Spawn("receiver", receiver.CPU, func(th *smp.Thread) {
		req := receiver.Irecv(th, sender.ID, dst, len(data))
		b1, err1 := req.Wait(th)
		b2, err2 := req.Wait(th)
		if err1 != nil || err2 != nil {
			t.Errorf("waits errored: %v %v", err1, err2)
		}
		if !bytes.Equal(b1, data) || !bytes.Equal(b2, data) {
			t.Error("repeated Wait returned different data")
		}
	})
	c.Run()
}
