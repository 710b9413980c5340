// Command pushpull-trace prints the event timeline of a single Push-Pull
// messaging event on the simulated testbed — a teaching and debugging
// view of the protocol's phases (push, acknowledge/pull-request, pull,
// completion) with virtual timestamps. With -columns the two nodes print
// side by side; -summary appends per-event-kind counts, including the NIC
// and go-back-N layers.
//
// Usage:
//
//	pushpull-trace [-size N] [-mode push-pull|push-zero|push-all|three-phase]
//	               [-intra] [-late MS] [-pushedbuf N] [-columns] [-summary]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// errUsage reports a command line the flag set rejected; the message is
// already on stderr.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, traces one messaging event and writes the timeline
// (and any requested summary or breakdown) to w.
func run(args []string, w io.Writer) error {
	flags := flag.NewFlagSet("pushpull-trace", flag.ContinueOnError)
	size := flags.Int("size", 1400, "message size in bytes")
	mode := flags.String("mode", "push-pull", "messaging mode: push-pull, push-zero, push-all, three-phase")
	intra := flags.Bool("intra", false, "intranode transfer (default internode)")
	lateMS := flags.Int("late", 0, "delay the receive operation by this many virtual ms")
	pushedBuf := flags.Int("pushedbuf", 4096, "pushed buffer bytes")
	columns := flags.Bool("columns", false, "render one column per node")
	summary := flags.Bool("summary", false, "append per-kind event counts")
	breakdown := flags.Bool("breakdown", false, "append the critical-path phase breakdown (the paper's Figure 2, measured)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	opts := pushpull.DefaultOptions()
	opts.PushedBufBytes = *pushedBuf
	switch *mode {
	case "push-pull":
		opts.Mode = pushpull.PushPull
	case "push-zero":
		opts.Mode = pushpull.PushZero
	case "push-all":
		opts.Mode = pushpull.PushAll
	case "three-phase":
		opts.Mode = pushpull.ThreePhase
	default:
		fmt.Fprintf(flags.Output(), "unknown mode %q\n", *mode)
		return errUsage
	}

	cfg := cluster.DefaultConfig()
	cfg.Opts = opts
	rNode := 1
	if *intra {
		cfg.Nodes = 1
		cfg.ProcsPerNode = 2
		rNode = 0
	}
	c := cluster.New(cfg)
	defer c.Shutdown()
	rec := trace.NewRecorder(0)
	c.SetRecorder(rec)

	sender := c.Endpoint(0, 0)
	var receiver *pushpull.Endpoint
	if *intra {
		receiver = c.Endpoint(0, 1)
	} else {
		receiver = c.Endpoint(1, 0)
	}

	msg := make([]byte, *size)
	for i := range msg {
		msg[i] = byte(i)
	}
	src := sender.Alloc(*size)
	dst := receiver.Alloc(*size)

	fmt.Fprintf(w, "# %s, %d bytes, %s, pushed buffer %d B, receive delayed %d ms\n",
		*mode, *size, route(*intra), *pushedBuf, *lateMS)

	var sendErr, recvErr error
	c.Nodes[0].Spawn("sender", sender.CPU, func(t *smp.Thread) {
		if sendErr = sender.Send(t, receiver.ID, src, msg); sendErr == nil {
			rec.Recordf(t.Now(), 0, "api", "send() returned")
		}
	})
	c.Nodes[rNode].SpawnAt(sim.Duration(*lateMS)*sim.Millisecond, "receiver", receiver.CPU, func(t *smp.Thread) {
		rec.Recordf(t.Now(), rNode, "api", "recv() posted")
		var got []byte
		if got, recvErr = receiver.Recv(t, sender.ID, dst, *size); recvErr == nil {
			rec.Recordf(t.Now(), rNode, "api", "recv() returned %d bytes", len(got))
		}
	})
	end := c.Run()
	if sendErr != nil {
		return fmt.Errorf("send: %w", sendErr)
	}
	if recvErr != nil {
		return fmt.Errorf("recv: %w", recvErr)
	}

	var err error
	if *columns {
		err = rec.RenderColumns(w, 0)
	} else {
		err = rec.Render(w)
	}
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	fmt.Fprintf(w, "# simulation drained at %v, %d events\n", end, rec.Total())
	if *summary {
		fmt.Fprint(w, rec.Summary())
	}
	if *breakdown {
		fmt.Fprint(w, trace.RenderBreakdown(trace.Breakdown(rec.Events())))
	}
	return nil
}

func route(intra bool) string {
	if intra {
		return "intranode"
	}
	return "internode (Fast Ethernet)"
}
