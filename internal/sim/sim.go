// Package sim provides a deterministic discrete-event simulator.
//
// All Teechain experiments run in virtual time: protocol code is written
// as message-driven state machines, and the simulator advances a virtual
// clock from event to event. A multi-second wide-area experiment
// therefore completes in microseconds of wall time, and every run is
// bit-for-bit reproducible.
//
// Events scheduled for the same instant fire in scheduling order, which
// makes the simulation deterministic without any reliance on map
// iteration order or goroutine interleaving.
//
// The event queue is a 4-ary heap storing entries by value: the common
// case — scheduling work that is never cancelled — allocates nothing.
// Only Schedule/ScheduleAt, which hand back a cancellable handle,
// allocate an Event. Hot callers that would otherwise allocate a closure
// per event implement Action and reuse one object across firings (see
// DESIGN.md §6 for the buffer-ownership rules this supports).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant in virtual time, expressed as nanoseconds since the
// start of the simulation.
type Time int64

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(math.MaxInt64)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as a duration offset from simulation start.
func (t Time) String() string { return Duration(t).String() }

// Action is a schedulable work item. Implementations that are pointers
// can be scheduled without any allocation, unlike closures; netsim's
// pooled message deliveries are the main user.
type Action interface {
	RunAction()
}

// Event is a cancellable handle to a scheduled callback, created by
// Schedule/ScheduleAt.
type Event struct {
	at        Time
	index     int // heap index, -1 when not queued
	cancelled bool
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// entry is one queued event, stored by value in the heap. Exactly one of
// fn and act is set; ev is non-nil only for cancellable events.
type entry struct {
	at  Time
	seq uint64
	fn  func()
	act Action
	ev  *Event
}

func entryBefore(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator is a deterministic discrete-event scheduler. The zero value
// is not usable; create one with New.
type Simulator struct {
	now   Time
	seq   uint64
	queue []entry // 4-ary min-heap ordered by (at, seq)

	// Stepped counts events executed; useful as a progress/guard metric.
	stepped uint64
}

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.stepped }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule arranges for fn to run d after the current virtual time.
// A negative d schedules the event for the current instant.
func (s *Simulator) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt arranges for fn to run at instant t and returns a
// cancellable handle. Scheduling in the past panics: it indicates a
// causality bug in the caller.
func (s *Simulator) ScheduleAt(t Time, fn func()) *Event {
	e := &Event{at: t}
	s.pushEntry(entry{at: t, fn: fn, ev: e})
	return e
}

// ScheduleFuncAt arranges for fn to run at instant t without returning
// a cancellable handle; unlike ScheduleAt it performs no bookkeeping
// allocation.
func (s *Simulator) ScheduleFuncAt(t Time, fn func()) {
	s.pushEntry(entry{at: t, fn: fn})
}

// ScheduleActionAt arranges for a to run at instant t. Pointer-typed
// actions schedule with zero allocation.
func (s *Simulator) ScheduleActionAt(t Time, a Action) {
	s.pushEntry(entry{at: t, act: a})
}

func (s *Simulator) pushEntry(e entry) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", e.at, s.now))
	}
	e.seq = s.seq
	s.seq++
	i := len(s.queue)
	s.queue = append(s.queue, e)
	if e.ev != nil {
		e.ev.index = i
	}
	s.up(i)
}

func (s *Simulator) swap(i, j int) {
	q := s.queue
	q[i], q[j] = q[j], q[i]
	if q[i].ev != nil {
		q[i].ev.index = i
	}
	if q[j].ev != nil {
		q[j].ev.index = j
	}
}

func (s *Simulator) up(i int) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 4
		if !entryBefore(&q[i], &q[p]) {
			break
		}
		s.swap(i, p)
		i = p
	}
}

func (s *Simulator) down(i int) {
	q := s.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := i
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if entryBefore(&q[c], &q[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		s.swap(i, best)
		i = best
	}
}

// popMin removes and returns the earliest entry.
func (s *Simulator) popMin() entry {
	q := s.queue
	min := q[0]
	if min.ev != nil {
		min.ev.index = -1
	}
	last := len(q) - 1
	if last > 0 {
		q[0] = q[last]
		if q[0].ev != nil {
			q[0].ev.index = 0
		}
	}
	q[last] = entry{}
	s.queue = q[:last]
	if last > 0 {
		s.down(0)
	}
	return min
}

// removeAt removes the entry at heap index i.
func (s *Simulator) removeAt(i int) {
	q := s.queue
	if q[i].ev != nil {
		q[i].ev.index = -1
	}
	last := len(q) - 1
	if i != last {
		q[i] = q[last]
		if q[i].ev != nil {
			q[i].ev.index = i
		}
	}
	q[last] = entry{}
	s.queue = q[:last]
	if i != last {
		s.down(i)
		s.up(i)
	}
}

// Cancel removes a pending event. Cancelling an event that already fired
// or was already cancelled is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.cancelled || e.index < 0 {
		e.cancelled = true
		return
	}
	e.cancelled = true
	s.removeAt(e.index)
}

// Step executes the next pending event, advancing the clock to its
// instant. It reports whether an event was executed.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.popMin()
		if e.ev != nil && e.ev.cancelled {
			continue
		}
		s.now = e.at
		s.stepped++
		if e.act != nil {
			e.act.RunAction()
		} else {
			e.fn()
		}
		return true
	}
	return false
}

// Run executes events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with instants <= t and then advances the
// clock to exactly t. Events scheduled after t remain queued.
func (s *Simulator) RunUntil(t Time) {
	for len(s.queue) > 0 {
		if s.queue[0].at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// RunSteps executes at most n events and returns how many ran. It is a
// guard against runaway simulations in tests.
func (s *Simulator) RunSteps(n uint64) uint64 {
	var ran uint64
	for ran < n && s.Step() {
		ran++
	}
	return ran
}
