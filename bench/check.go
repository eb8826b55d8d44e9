package main

import (
	"fmt"
	"time"

	"teechain/internal/chain"
)

// check verifies, after every loop has drained, that the cluster's
// state is what the completed requests imply. It returns every
// violation found.
func check(b *bed, w workload) []error {
	var errs []error
	if w.batch > 0 {
		errs = append(errs, checkLane(b, b.sent)...)
	}
	if w.callers != 0 {
		errs = append(errs, checkRouted(b)...)
	}
	return errs
}

// checkLane verifies the lane channel against want, the payments the
// loops saw completed: both ends' balances equal the deposit less or
// plus exactly that amount, both ends' counters equal that many
// payments, no committee froze or stalled, and the WAL synced every
// operation.
func checkLane(b *bed, want laneTotals) []error {
	var errs []error
	sender, receiver := b.c.Host(b.sender), b.c.Host(b.receiver)
	mine, remote, err := sender.ChannelBalances(b.ch)
	if err != nil {
		errs = append(errs, err)
	} else if mine != deposit-want.amount || remote != want.amount {
		errs = append(errs, fmt.Errorf("%s holds (%d, %d) on %s, want (%d, %d)",
			b.sender, mine, remote, b.ch, deposit-want.amount, want.amount))
	}
	mine, remote, err = receiver.ChannelBalances(b.ch)
	if err != nil {
		errs = append(errs, err)
	} else if mine != want.amount || remote != deposit-want.amount {
		errs = append(errs, fmt.Errorf("%s holds (%d, %d) on %s, want (%d, %d)",
			b.receiver, mine, remote, b.ch, want.amount, deposit-want.amount))
	}
	if cs := sender.ChannelStats()[b.ch]; cs.Acked != want.payments || cs.Nacked != 0 {
		errs = append(errs, fmt.Errorf("%s counts %d acked and %d nacked payments, want %d and 0",
			b.sender, cs.Acked, cs.Nacked, want.payments))
	}
	if cs := receiver.ChannelStats()[b.ch]; cs.Received != want.payments {
		errs = append(errs, fmt.Errorf("%s counts %d received payments, want %d", b.receiver, cs.Received, want.payments))
	}
	for _, name := range b.names {
		st, ok := b.c.Host(name).CommitteeStats()
		if ok && (st.FrozenMirrors != 0 || st.Stalls != 0) {
			errs = append(errs, fmt.Errorf("%s has %d frozen mirrors and %d replication stalls", name, st.FrozenMirrors, st.Stalls))
		}
	}
	// The WAL flusher runs behind the acks by design; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws, durable := sender.WalStats()
		if !durable || ws.SyncedSeq == ws.NextSeq {
			break
		}
		if time.Now().After(deadline) {
			errs = append(errs, fmt.Errorf("%s WAL synced %d of %d operations", b.sender, ws.SyncedSeq, ws.NextSeq))
			break
		}
		time.Sleep(time.Millisecond)
	}
	return errs
}

// checkRouted verifies fee-inclusive conservation: on every channel of
// the topology both endpoints agree on both balances, and the two sides
// sum to the deposit. (Each route's fee schedule was checked when its
// payment returned.)
func checkRouted(b *bed) []error {
	var errs []error
	var total chain.Amount
	for i, pair := range b.net.Channels {
		id := b.chans[i]
		mine, remote, err := b.c.Host(pair[0]).ChannelBalances(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		theirs, theirRemote, err := b.c.Host(pair[1]).ChannelBalances(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if mine != theirRemote || remote != theirs {
			errs = append(errs, fmt.Errorf("channel %s: %s holds (%d, %d) but %s holds (%d, %d)",
				id, pair[0], mine, remote, pair[1], theirs, theirRemote))
		}
		if mine+remote != deposit {
			errs = append(errs, fmt.Errorf("channel %s: sides sum to %d, deposit is %d", id, mine+remote, deposit))
		}
		total += mine + remote
	}
	if want := chain.Amount(len(b.net.Channels)) * deposit; total != want {
		errs = append(errs, fmt.Errorf("channels hold %d in total, deposits were %d", total, want))
	}
	return errs
}
