package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"teechain/internal/cryptoutil"
	"teechain/internal/route"
	"teechain/internal/wire"
)

// TestDeploymentPathsMatchExhaustive checks Deployment.Paths against
// exhaustive search on seeded random multigraphs of up to ten nodes,
// parallel channels included: every simple path, ordered by hop count
// and then by key sequence, cut to those within extra hops of the
// shortest, first k kept.
func TestDeploymentPathsMatchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var outsider cryptoutil.PublicKey
	rng.Read(outsider[:])
	var checked, unreachable, self int
	for g := 0; g < 150; g++ {
		n := 2 + rng.Intn(9)
		keys := make([]cryptoutil.PublicKey, n)
		for i := range keys {
			rng.Read(keys[i][:])
		}
		d := &Deployment{graph: route.NewGraph()}
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			d.addEdges(wire.ChannelID(fmt.Sprintf("g%d-c%d", g, e)), keys[a], keys[b])
			adj[a][b], adj[b][a] = true, true
		}
		for _, ke := range [][2]int{{1, 0}, {4, 2}, {3, 0}, {8, 5}} {
			k, extra := ke[0], ke[1]
			for a := range keys {
				for b := range keys {
					want := exhaustivePaths(keys, adj, a, b, k, extra)
					got := d.Paths(keys[a], keys[b], k, extra)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("graph %d, %d→%d, k=%d extra=%d: got %d paths, want %d", g, a, b, k, extra, len(got), len(want))
					}
					checked++
					switch {
					case a == b:
						self++
					case want == nil:
						unreachable++
					}
				}
				if got := d.Paths(keys[a], outsider, k, extra); got != nil {
					t.Fatalf("graph %d: %d paths to a key outside the graph", g, len(got))
				}
			}
		}
	}
	if unreachable == 0 || self == 0 {
		t.Fatalf("no unreachable (%d) or self (%d) pairs among %d", unreachable, self, checked)
	}
}

// exhaustivePaths enumerates every simple path from keys[src] to
// keys[dst] and returns the first k of those at most extra hops longer
// than the shortest, ordered by hop count and then key sequence.
func exhaustivePaths(keys []cryptoutil.PublicKey, adj [][]bool, src, dst, k, extra int) [][]cryptoutil.PublicKey {
	if src == dst {
		return [][]cryptoutil.PublicKey{{keys[src]}}
	}
	var all [][]cryptoutil.PublicKey
	seen := make([]bool, len(keys))
	path := []cryptoutil.PublicKey{keys[src]}
	var walk func(u int)
	walk = func(u int) {
		if u == dst {
			all = append(all, slices.Clone(path))
			return
		}
		seen[u] = true
		for v, ok := range adj[u] {
			if ok && !seen[v] {
				path = append(path, keys[v])
				walk(v)
				path = path[:len(path)-1]
			}
		}
		seen[u] = false
	}
	walk(src)
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(a, b []cryptoutil.PublicKey) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.CompareFunc(a, b, func(x, y cryptoutil.PublicKey) int { return bytes.Compare(x[:], y[:]) })
	})
	var out [][]cryptoutil.PublicKey
	for _, p := range all {
		if len(out) == k || len(p) > len(all[0])+extra {
			break
		}
		out = append(out, p)
	}
	return out
}
