package route

import "time"

// Policy is the routed-payment retry policy of both hosts (§7.4 retries
// a failed payment after a randomised backoff): how many paths a round
// tries before it backs off, and the backoff. Only transient aborts are
// retried; a hard failure (insufficient funds, a refused stage) is the
// same on every path and after any wait.
type Policy struct {
	// Paths is how many paths a round tries before it backs off.
	Paths int
	// Lo and Hi bound the first backoff, drawn uniformly from [Lo, Hi).
	// After each round both double while Hi−Lo is below Grow.
	Lo, Hi, Grow time.Duration
}

// Paper is §7.4's policy, which the simulated hosts run: one path per
// round, rotating through the caller's list, and a fixed 100–200 ms
// backoff.
var Paper = Policy{Paths: 1, Lo: 100 * time.Millisecond, Hi: 200 * time.Millisecond}

// socketWidth is Socket's first backoff width b: it waits U[b/2, 3b/2).
const socketWidth = time.Millisecond

// Socket is the socket host's policy: the cheapest route and up to
// three alternates per round, then a backoff whose width doubles from
// 1 ms until it reaches 500 ms. A socket sender learns of a collision
// within a loopback round trip, so it retries fast at first; but each
// round is a pathfinding pass over the whole graph, and hundreds of
// senders re-resolving every few milliseconds starve the goroutines
// that would let any of them finish, so repeated collisions back off.
var Socket = Policy{Paths: 4, Lo: socketWidth / 2, Hi: socketWidth * 3 / 2, Grow: 500 * time.Millisecond}

// Retry is one payment's walk through its Policy, whose backoff window
// it widens as rounds end.
type Retry struct {
	Policy
	Path  int // the next attempt's index in the caller's path list
	Tries int // failed attempts so far
	round int // attempts in the current round
}

// Failed records a failed attempt over a list of n paths. It reports
// false if the abort was not transient. Otherwise it moves Path on and
// returns the wait before the next attempt: none while the round has
// paths left, and once it has tried Paths paths or wrapped around the
// list (so a caller that re-resolves each round finds Path at 0), a
// draw from [Lo, Hi) by the caller's random source: a seeded sim.Rand
// keeps the simulator deterministic.
func (r *Retry) Failed(transient bool, n int, int63n func(int64) int64) (time.Duration, bool) {
	if !transient {
		return 0, false
	}
	r.Tries++
	r.round++
	r.Path = (r.Path + 1) % n
	if r.round < r.Paths && r.Path != 0 {
		return 0, true
	}
	r.round = 0
	wait := r.Lo + time.Duration(int63n(int64(r.Hi-r.Lo)))
	if r.Hi-r.Lo < r.Grow {
		r.Lo, r.Hi = 2*r.Lo, 2*r.Hi
	}
	return wait, true
}
