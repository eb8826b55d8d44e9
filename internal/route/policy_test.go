package route

import (
	"math/rand"
	"testing"
	"time"

	"teechain/internal/sim"
)

// TestPaperPolicyDrawsTheSection74Backoff: every retry under Paper ends
// its round, rotates to the next of the caller's paths, and waits
// exactly what sim.Rand.DurationBetween(100 ms, 200 ms) draws from the
// same seed, so the simulator's runs keep their numbers.
func TestPaperPolicyDrawsTheSection74Backoff(t *testing.T) {
	src, ref := sim.NewRand(7), sim.NewRand(7)
	r := Retry{Policy: Paper}
	for i := 1; i <= 100; i++ {
		wait, ok := r.Failed(true, 3, src.Int63n)
		want := ref.DurationBetween(100*time.Millisecond, 200*time.Millisecond)
		if !ok || wait != want {
			t.Fatalf("retry %d: wait %v ok=%v, want %v", i, wait, ok, want)
		}
		if r.Path != i%3 || r.Tries != i {
			t.Fatalf("retry %d: path %d tries %d, want %d/%d", i, r.Path, r.Tries, i%3, i)
		}
	}
}

// TestSocketPolicyDrawsTheDoublingBackoff: a round of one route ends at
// its first failure, and its wait is b/2 + Int63n(b) from the same
// seed, with b doubling from 1 ms while it is below 500 ms — so it
// settles at 512 ms well within the 100 rounds checked.
func TestSocketPolicyDrawsTheDoublingBackoff(t *testing.T) {
	src, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	r := Retry{Policy: Socket}
	b := time.Millisecond
	for i := 1; i <= 100; i++ {
		wait, ok := r.Failed(true, 1, src.Int63n)
		want := time.Duration(ref.Int63n(int64(b))) + b/2
		if !ok || wait != want || r.Path != 0 {
			t.Fatalf("round %d: wait %v ok=%v path %d, want %v on path 0", i, wait, ok, r.Path, want)
		}
		if b < 500*time.Millisecond {
			b *= 2
		}
	}
	if b != 512*time.Millisecond {
		t.Fatalf("width ended at %v, want the 512 ms cap", b)
	}
}

// TestSocketRoundWalksItsRoutesBeforeBackingOff: with the cheapest
// route and three alternates, a round tries all four at once and backs
// off only when the list wraps; a hard failure stops the walk.
func TestSocketRoundWalksItsRoutesBeforeBackingOff(t *testing.T) {
	zero := func(int64) int64 { return 0 }
	r := Retry{Policy: Socket}
	for want := 1; want < 4; want++ {
		if wait, ok := r.Failed(true, 4, zero); !ok || wait != 0 || r.Path != want {
			t.Fatalf("failure %d: wait %v ok=%v path %d, want no wait, path %d", want, wait, ok, r.Path, want)
		}
	}
	if wait, ok := r.Failed(true, 4, zero); !ok || wait != Socket.Lo || r.Path != 0 {
		t.Fatalf("end of round: wait %v ok=%v path %d, want %v, path 0", wait, ok, r.Path, Socket.Lo)
	}
	// The second round backs off from a doubled window.
	if wait, ok := r.Failed(true, 1, zero); !ok || wait != 2*Socket.Lo {
		t.Fatalf("second round: wait %v ok=%v, want %v", wait, ok, 2*Socket.Lo)
	}
	if _, ok := r.Failed(false, 4, zero); ok || r.Tries != 5 {
		t.Fatalf("hard failure retried (ok=%v) or counted (tries %d, want 5)", ok, r.Tries)
	}
}
