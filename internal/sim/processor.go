package sim

// Processor models a serial compute resource (one enclave-hosting CPU
// core). Work items submitted to a processor execute one at a time in
// submission order; each occupies the processor for its stated cost.
//
// This is the mechanism that turns per-operation processing costs into
// throughput ceilings: a channel whose payments cost 7.5 µs of enclave
// time saturates at ~133 k payments/s regardless of how fast messages
// arrive, exactly as a real serial enclave would.
type Processor struct {
	sim       *Simulator
	busyUntil Time

	// Busy accumulates total occupied time, for utilisation metrics.
	busy Duration
}

// NewProcessor returns a processor bound to the simulator's clock.
func NewProcessor(s *Simulator) *Processor {
	return &Processor{sim: s}
}

// Do schedules fn to run once the processor has been exclusively
// occupied for cost, starting no earlier than now and no earlier than
// the completion of previously submitted work. It returns the virtual
// completion time.
func (p *Processor) Do(cost Duration, fn func()) Time {
	done := p.occupy(p.sim.Now(), cost)
	p.sim.ScheduleFuncAt(done, fn)
	return done
}

// DoAt is like Do but the work cannot start before instant t (used for
// work whose input only becomes available at t, e.g. a message arriving
// over a link).
func (p *Processor) DoAt(t Time, cost Duration, fn func()) Time {
	done := p.occupy(t, cost)
	p.sim.ScheduleFuncAt(done, fn)
	return done
}

// DoAction is Do for a sim.Action; pointer-typed actions run through
// the processor with zero allocation.
func (p *Processor) DoAction(cost Duration, a Action) Time {
	done := p.occupy(p.sim.Now(), cost)
	p.sim.ScheduleActionAt(done, a)
	return done
}

// DoAtAction is DoAt for a sim.Action.
func (p *Processor) DoAtAction(t Time, cost Duration, a Action) Time {
	done := p.occupy(t, cost)
	p.sim.ScheduleActionAt(done, a)
	return done
}

// occupy reserves the processor for cost starting no earlier than t,
// the current instant, or the completion of previously submitted work,
// and returns the completion instant.
func (p *Processor) occupy(t Time, cost Duration) Time {
	if cost < 0 {
		cost = 0
	}
	start := t
	if now := p.sim.Now(); start < now {
		start = now
	}
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done := start.Add(cost)
	p.busyUntil = done
	p.busy += cost
	return done
}

// BusyTime returns the cumulative occupied time.
func (p *Processor) BusyTime() Duration { return p.busy }
