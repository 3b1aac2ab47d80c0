package dramctl

import (
	"math"
	"slices"
	"sync"
)

// Timing memo: a controller's state after New depends only on its
// (Timing, Geometry) and the AccessRange calls made since, so a short
// range's exact outcome can be replayed instead of rescheduled word by
// word. The memo is a trie over that history. Each (Timing, Geometry)
// has a root standing for the fresh controller; the child of node N
// for (start, count, op) holds the exact state and completion cycle of
// running that range from N's state. Keys compare by value and node
// identity, never by hash, so a hit is exact by construction.
//
// The memo is process-wide and shared by every controller, board and
// job. It holds at most maxMemoNodes nodes; once full, controllers
// whose next step is not already memoized schedule it exactly and
// leave the memo path. A direct Access also leaves it, because its
// history is no longer a sequence of memoized ranges.

// maxMemoNodes bounds the memo (roots included). A node holds one
// controller snapshot, about 0.7 KB with the default geometry.
const maxMemoNodes = 1024

// memoNode is one controller history: its state after the history ran,
// and the completion cycle the last range returned.
type memoNode struct {
	snap state
	done float64
}

type memoKey struct {
	parent       *memoNode
	start, count uint64
	op           Op
}

type memoRootKey struct {
	t Timing
	g Geometry
}

var timingMemo = struct {
	mu    sync.RWMutex
	roots map[memoRootKey]*memoNode
	steps map[memoKey]*memoNode
	nodes int
}{
	roots: make(map[memoRootKey]*memoNode),
	steps: make(map[memoKey]*memoNode),
}

// memoRoot returns the root node for (t, g), or nil when the memo is
// full. Roots carry no snapshot: New builds the fresh state itself.
func memoRoot(t Timing, g Geometry) *memoNode {
	if math.IsNaN(t.ClockMHz) || math.IsNaN(t.TRFCNs) || math.IsNaN(t.TREFINs) {
		return nil // a NaN key could never be found again
	}
	key := memoRootKey{t, g}
	timingMemo.mu.RLock()
	n := timingMemo.roots[key]
	timingMemo.mu.RUnlock()
	if n != nil {
		return n
	}
	timingMemo.mu.Lock()
	defer timingMemo.mu.Unlock()
	if n := timingMemo.roots[key]; n != nil {
		return n
	}
	if timingMemo.nodes >= maxMemoNodes {
		return nil
	}
	n = &memoNode{}
	timingMemo.roots[key] = n
	timingMemo.nodes++
	return n
}

// memoLookup returns the memoized step for key, or nil.
func memoLookup(key memoKey) *memoNode {
	timingMemo.mu.RLock()
	n := timingMemo.steps[key]
	timingMemo.mu.RUnlock()
	return n
}

// memoStore records c's present state as the outcome of key and
// returns the node, or nil when the memo is full. A concurrent store
// of the same key keeps the first node; both hold the same state.
func memoStore(key memoKey, c *Controller, done float64) *memoNode {
	timingMemo.mu.Lock()
	defer timingMemo.mu.Unlock()
	if n := timingMemo.steps[key]; n != nil {
		return n
	}
	if timingMemo.nodes >= maxMemoNodes {
		return nil
	}
	n := &memoNode{snap: c.state, done: done}
	n.snap.banks = slices.Clone(c.banks)
	timingMemo.steps[key] = n
	timingMemo.nodes++
	return n
}

// restore sets c to node n's state, reusing c's bank slice.
func (c *Controller) restore(n *memoNode) {
	banks := c.banks
	c.state = n.snap
	c.banks = banks
	copy(c.banks, n.snap.banks)
	c.memo = n
}
