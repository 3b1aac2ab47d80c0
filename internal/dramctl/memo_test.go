package dramctl

import (
	"fmt"
	"sync"
	"testing"

	"hbmvolt/internal/prf"
)

// memoStep is one call in a randomized controller program.
type memoStep struct {
	kind         int // 0: New, 1: Access, 2: AccessRange
	start, count uint64
	op           Op
}

// randomProgram draws a program from a small vocabulary of starts and
// counts, so histories repeat across New calls and the memo both hits
// and misses. Counts straddle bulkExactThreshold.
func randomProgram(seed uint64, n int) []memoStep {
	src := prf.NewSource(seed)
	starts := []uint64{0, 1, 37, 4096, 8191}
	counts := []uint64{1, 2, 31, 640, 8192, bulkExactThreshold - 1, bulkExactThreshold, bulkExactThreshold + 1, 40000}
	prog := []memoStep{{kind: 0}}
	for len(prog) < n {
		st := memoStep{op: Op(src.Intn(2))}
		switch r := src.Intn(16); {
		case r < 3:
			st.kind = 0
		case r < 4:
			st.kind = 1
			st.start = uint64(src.Intn(20000))
		default:
			st.kind = 2
			st.start = starts[src.Intn(len(starts))]
			st.count = counts[src.Intn(len(counts))]
		}
		prog = append(prog, st)
	}
	return prog
}

// checkProgram runs prog on a memoized controller and on a memo-free
// reference, comparing every completion cycle and the statistics after
// every step.
func checkProgram(prog []memoStep) error {
	var c, ref *Controller
	for i, st := range prog {
		var got, want float64
		switch st.kind {
		case 0:
			var err error
			if c, err = New(DefaultTiming(), DefaultGeometry); err != nil {
				return err
			}
			ref = newController(DefaultTiming(), DefaultGeometry)
			continue
		case 1:
			got, want = c.Access(st.start, st.op), ref.Access(st.start, st.op)
		case 2:
			got = c.AccessRange(st.start, st.count, st.op)
			want = ref.AccessRange(st.start, st.count, st.op)
		}
		if ref.memo != nil {
			return fmt.Errorf("step %d: reference controller entered the memo path", i)
		}
		if got != want {
			return fmt.Errorf("step %d %+v: done %v, reference %v", i, st, got, want)
		}
		if c.Stats() != ref.Stats() {
			return fmt.Errorf("step %d %+v: stats %+v, reference %+v", i, st, c.Stats(), ref.Stats())
		}
	}
	return nil
}

// TestTimingMemoExact: randomized interleavings of New, Access and
// AccessRange (both ops, counts on both sides of the exact threshold)
// give the same completion cycles and statistics as a controller that
// never touches the memo.
func TestTimingMemoExact(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		if err := checkProgram(randomProgram(seed, 40)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTimingMemoConcurrent: controllers on several goroutines share
// the process-wide memo, replaying and storing the same histories at
// once, and each stays exact. Run under -race in CI.
func TestTimingMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := uint64(100); seed < 104; seed++ {
				if err := checkProgram(randomProgram(seed, 30)); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestTimingMemoBounded: a history longer than the memo's capacity
// stays exact once the memo stops growing, and the memo never holds
// more than maxMemoNodes nodes.
func TestTimingMemoBounded(t *testing.T) {
	resetTimingMemo()
	t.Cleanup(resetTimingMemo) // leave room for the other tests
	prog := []memoStep{{kind: 0}}
	for a := uint64(0); a < maxMemoNodes+64; a++ {
		prog = append(prog, memoStep{kind: 2, start: a, count: 1, op: Op(a % 2)})
	}
	for pass := 0; pass < 2; pass++ { // the second replays the memoized prefix
		if err := checkProgram(prog); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	timingMemo.mu.RLock()
	nodes := timingMemo.nodes
	timingMemo.mu.RUnlock()
	if nodes > maxMemoNodes {
		t.Fatalf("memo holds %d nodes, bound %d", nodes, maxMemoNodes)
	}
}

// resetTimingMemo empties the process-wide memo. Controllers holding
// old nodes stay exact: their next steps simply miss.
func resetTimingMemo() {
	timingMemo.mu.Lock()
	defer timingMemo.mu.Unlock()
	clear(timingMemo.roots)
	clear(timingMemo.steps)
	timingMemo.nodes = 0
}

// TestTimingMemoHitAllocationFree: a second controller running the
// same pass lands on the same memo nodes (a hit), and a pass replayed
// from the memo — Reset, write range, read range — allocates nothing.
func TestTimingMemoHitAllocationFree(t *testing.T) {
	g := Geometry{BankGroups: 4, BanksPerGroup: 2, WordsPerRow: 16}
	c, err := New(DefaultTiming(), g)
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		c.Reset()
		c.AccessRange(0, 4096, Write)
		c.AccessRange(0, 4096, Read)
	}
	pass()
	if c.memo == nil {
		t.Fatal("pass left the memo path")
	}
	c2, err := New(DefaultTiming(), g)
	if err != nil {
		t.Fatal(err)
	}
	c2.AccessRange(0, 4096, Write)
	if c2.AccessRange(0, 4096, Read); c2.memo != c.memo {
		t.Fatal("identical history did not replay the memoized node")
	}
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("memoized pass allocates %v times", allocs)
	}
}
