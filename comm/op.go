package comm

import "pushpull/internal/pushpull"

// Op is the one request type of the API: every nonblocking operation —
// send or receive — returns an Op, completed with Wait (blocking),
// polled with Test, or batched through WaitAll. Completing an Op more
// than once is valid and returns the same outcome. An operation that
// fails before it starts (e.g. a send posted on an incoming channel)
// returns an Op that is already complete with the error.
//
// Status reports the completed operation's matched envelope (source and
// tag) — informative after an AnySource or AnyTag receive; Subscribe
// registers a process or tasklet for one wake at completion, which
// infrastructure layered on comm (the collective progression tasklet
// in package coll) uses to sleep between rounds instead of polling.
type Op = pushpull.Request

// WaitAll completes every Op in order and returns the first error.
func WaitAll(t *Thread, ops ...*Op) error { return pushpull.WaitAll(t, ops...) }
