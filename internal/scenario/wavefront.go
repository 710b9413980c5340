package scenario

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pushpull/comm"
	"pushpull/internal/cluster"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
)

// The wavefront pattern is the engine's irregular, data-dependent shape
// (in the spirit of the wavefront-propagation workloads of the
// irregular-application literature): rank Root injects Messages seed
// messages, and every delivered message below Depth triggers Fanout new
// sends whose targets and sizes are derived from the received payload
// bytes — the communication graph unfolds from the data as it arrives.
//
// Because the derivation is a pure function of delivered bytes and the
// transport is reliable, the full message graph is computable in
// advance. The pattern does exactly that to know how many messages each
// directed channel will carry (each channel gets one reactor thread
// receiving that many messages); at run time the reactors re-derive the
// children from the bytes they actually received, so a corrupted or
// misdelivered payload would desynchronize the run and be caught as a
// count mismatch.

// wfHeaderBytes is the payload prefix carrying the generative state:
// an 8-byte key, a 1-byte depth, and the 8-byte send timestamp.
const wfHeaderBytes = 17

// wfMix is a 64-bit finalizer (splitmix64-style) used for all
// data-derived decisions.
func wfMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// wfParams is the wavefront's resolved configuration.
type wfParams struct {
	ranks   int
	root    int
	width   int // initial messages injected by the root
	fanout  int
	depth   int
	minSize int
	maxSize int
}

func wavefrontParams(s Spec, ranks int) (wfParams, error) {
	p := wfParams{
		ranks:   ranks,
		root:    s.Traffic.Root,
		width:   s.Traffic.Messages,
		fanout:  s.Traffic.Fanout,
		depth:   s.Traffic.Depth,
		minSize: s.Traffic.MinSize,
		maxSize: s.Traffic.MaxSize,
	}
	if p.fanout <= 0 {
		p.fanout = 2
	}
	if p.depth <= 0 {
		p.depth = 3
	}
	// Size bounds: zero means default; an explicit bad value is an
	// error, never a silent substitution — a run must mean exactly what
	// its spec says.
	switch {
	case p.minSize == 0:
		p.minSize = 64
	case p.minSize < wfHeaderBytes:
		return p, fmt.Errorf("scenario: wavefront minSize %d is below the %d-byte payload header", p.minSize, wfHeaderBytes)
	}
	switch {
	case p.maxSize == 0:
		p.maxSize = max(p.minSize, s.Traffic.Size)
	case p.maxSize < p.minSize:
		return p, fmt.Errorf("scenario: wavefront maxSize %d is below minSize %d", p.maxSize, p.minSize)
	}
	if ranks < 2 {
		return p, fmt.Errorf("scenario: wavefront needs at least 2 ranks, have %d", ranks)
	}
	if p.root < 0 || p.root >= ranks {
		return p, fmt.Errorf("scenario: wavefront root %d out of range (%d ranks)", p.root, ranks)
	}
	// Bound the explosion: width * fanout^depth messages.
	total := p.width
	for d, layer := 0, p.width; d < p.depth; d++ {
		layer *= p.fanout
		total += layer
		if total > 1_000_000 {
			return p, fmt.Errorf("scenario: wavefront of width %d, fanout %d, depth %d exceeds 1M messages", p.width, p.fanout, p.depth)
		}
	}
	return p, nil
}

// wfChild derives child k of a message with generative key key held by
// rank holder: a new key, a target rank (never the holder itself) and a
// payload size in [minSize, maxSize].
func (p wfParams) wfChild(key uint64, holder, k int) (childKey uint64, target, size int) {
	childKey = wfMix(key + uint64(k) + 1)
	target = int(childKey % uint64(p.ranks))
	if target == holder {
		target = (target + 1) % p.ranks
	}
	span := p.maxSize - p.minSize + 1
	size = p.minSize + int((childKey>>32)%uint64(span))
	return childKey, target, size
}

// wfPlan walks the message graph without running it, returning the
// per-directed-channel message counts and the totals.
func (p wfParams) plan(seed uint64) (counts map[[2]int]int, messages int, bytes uint64) {
	type node struct {
		key    uint64
		holder int
		depth  int
	}
	counts = make(map[[2]int]int)
	var queue []node
	for i := 0; i < p.width; i++ {
		key, target, size := p.wfChild(wfMix(seed)+uint64(i), p.root, i)
		counts[[2]int{p.root, target}]++
		messages++
		bytes += uint64(size)
		queue = append(queue, node{key: key, holder: target, depth: 1})
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.depth >= p.depth {
			continue
		}
		for k := 0; k < p.fanout; k++ {
			key, target, size := p.wfChild(n.key, n.holder, k)
			counts[[2]int{n.holder, target}]++
			messages++
			bytes += uint64(size)
			queue = append(queue, node{key: key, holder: target, depth: n.depth + 1})
		}
	}
	return counts, messages, bytes
}

// wfEncode builds a payload of the given size carrying (key, depth,
// sentAt) in its header; the rest is key-derived filler.
func wfEncode(buf []byte, size int, key uint64, depth int, sentAt sim.Time) []byte {
	msg := buf[:size]
	binary.LittleEndian.PutUint64(msg[0:8], key)
	msg[8] = byte(depth)
	binary.LittleEndian.PutUint64(msg[9:17], uint64(sentAt))
	for i := wfHeaderBytes; i < size; i++ {
		msg[i] = byte(key >> (uint(i) % 64))
	}
	return msg
}

// runWavefront executes the pattern: one injector thread on the root,
// one reactor thread per active directed channel. Samples are
// per-message send-to-delivery latencies (the send timestamp rides in
// the payload).
func runWavefront(c *cluster.Cluster, s Spec) ([]float64, uint64, error) {
	cms := ranks(c)
	p, err := wavefrontParams(s, len(cms))
	if err != nil {
		return nil, 0, err
	}
	counts, planMsgs, planBytes := p.plan(s.Seed)

	type chanKey = [2]int
	samples := make([]float64, 0, planMsgs)
	var (
		gotMsgs  int
		gotBytes uint64
		runErr   error
	)

	// Every per-channel loop below walks the channels in sorted
	// (from, to) order: spawning reactors schedules events, so map
	// order would leak Go's randomized iteration into the run.
	keys := make([]chanKey, 0, len(counts))
	for ck := range counts {
		keys = append(keys, ck)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	// Each active directed channel reuses one source staging buffer (the
	// translation cost is per-address, so reuse mirrors a real sender's
	// registered buffer) — exactly what the comm.Channel manages; its
	// growth follows the deterministic message order. The payload bytes
	// themselves are allocated per message: the pull phase reads the
	// source asynchronously, and the receivers re-derive the graph from
	// the bytes they are handed.
	srcChan := make(map[chanKey]*comm.Channel, len(keys))
	for _, ck := range keys {
		srcChan[ck] = cms[ck[0]].To(cms[ck[1]].ID())
	}

	// send transmits one wavefront message on the (from → to) channel.
	send := func(t *smp.Thread, from int, key uint64, target, size, depth int) {
		msg := wfEncode(make([]byte, size), size, key, depth, t.Now())
		must(srcChan[chanKey{from, target}].Send(t, msg))
	}

	// react processes one delivered payload: record the sample, then
	// derive and emit the children. The message graph is re-derived from
	// the received bytes — the data dependence is real, not replayed.
	// Samples are digested in delivery order.
	react := func(t *smp.Thread, self int, data []byte) {
		key := binary.LittleEndian.Uint64(data[0:8])
		depth := int(data[8])
		sentAt := sim.Time(binary.LittleEndian.Uint64(data[9:17]))
		samples = append(samples, t.Now().Sub(sentAt).Microseconds())
		gotMsgs++
		gotBytes += uint64(len(data))
		if depth >= p.depth {
			return
		}
		for k := 0; k < p.fanout; k++ {
			childKey, target, size := p.wfChild(key, self, k)
			send(t, self, childKey, target, size, depth+1)
		}
	}

	// One reactor per active directed channel, on the receiver's CPU.
	for _, ck := range keys {
		ck, cnt := ck, counts[ck]
		from, to := cms[ck[0]], cms[ck[1]]
		spawn(c, to, fmt.Sprintf("wf-r%d<-%d", ck[1], ck[0]), func(t *smp.Thread) {
			for i := 0; i < cnt; i++ {
				data, err := to.Recv(t, from.ID(), p.maxSize)
				if err != nil {
					if runErr == nil {
						runErr = err
					}
					return
				}
				react(t, ck[1], data)
			}
		})
	}

	// The injector seeds the front from the root.
	spawn(c, cms[p.root], "wf-inject", func(t *smp.Thread) {
		for i := 0; i < p.width; i++ {
			key, target, size := p.wfChild(wfMix(s.Seed)+uint64(i), p.root, i)
			send(t, p.root, key, target, size, 1)
		}
	})
	simErr := runSim(c, s)
	// A reactor's Recv error strands its peers, so the budget usually
	// expires too — the root cause outranks the generic budget report.
	if runErr != nil {
		return nil, 0, runErr
	}
	if simErr != nil {
		return nil, 0, simErr
	}
	if gotMsgs != planMsgs || gotBytes != planBytes {
		return nil, 0, fmt.Errorf("scenario: wavefront delivered %d messages / %d bytes, plan predicted %d / %d (data-dependent derivation diverged)",
			gotMsgs, gotBytes, planMsgs, planBytes)
	}
	return samples, gotBytes, nil
}
