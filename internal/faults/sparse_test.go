package faults

import (
	"math"
	"testing"

	"hbmvolt/internal/pattern"
)

func sparseModel(t testing.TB, seed uint64, words uint64) *Model {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Geometry = Geometry{WordsPerPC: words, WordsPerRow: 32}
	cfg.SparseEnumeration = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSparseMatchesAnalytic is the sparse twin of
// TestMonteCarloMatchesAnalytic: the O(#faults) enumeration must land
// within Poisson bounds of the analytic expectation for both flip
// classes, in both the per-row enumeration regime (moderate undervolt)
// and the aggregate-draw regime (deep undervolt, bulk collapse active).
func TestSparseMatchesAnalytic(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 11, words)
	cases := []struct {
		stack, pc int
		v         float64
	}{
		{1, 2, 0.90},  // sensitive PC18, cluster-only, enumeration regime
		{0, 4, 0.92},  // sensitive PC4 higher voltage, tiny counts
		{0, 12, 0.87}, // mid PC, larger counts
		{0, 1, 0.85},  // robust PC in the bulk collapse, aggregate regime
	}
	for _, c := range cases {
		s := m.NewSampler(c.stack, c.pc, c.v)
		// All-1s exposes stuck-at-0 (1→0); all-0s exposes stuck-at-1.
		f10, _ := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
		f01, _ := s.CheckUniformRange(0, words, pattern.AllZerosWord, pattern.AllZerosWord)
		exp10 := m.ExpectedFaults(c.stack, c.pc, c.v, OneToZero, 0, words)
		exp01 := m.ExpectedFaults(c.stack, c.pc, c.v, ZeroToOne, 0, words)
		for _, chk := range []struct {
			name     string
			got, exp float64
		}{
			{"1to0", float64(f10.OneToZero), exp10},
			{"0to1", float64(f01.ZeroToOne), exp01},
		} {
			sd := math.Sqrt(math.Max(chk.exp, 1))
			if math.Abs(chk.got-chk.exp) > 6*sd {
				t.Errorf("stack%d pc%d %vV %s: got %v, want %v ± %v",
					c.stack, c.pc, c.v, chk.name, chk.got, chk.exp, 6*sd)
			}
		}
		if (f10.ZeroToOne != 0) || (f01.OneToZero != 0) {
			t.Errorf("stack%d pc%d %vV: impossible flip polarity under uniform patterns", c.stack, c.pc, c.v)
		}
	}
}

// TestSparseRangeFaultsConsistent pins the determinism contract: the
// draws depend only on (seed, PC, row, rep), so fault enumeration is
// identical across repeated and split queries.
func TestSparseRangeFaultsConsistent(t *testing.T) {
	m := sparseModel(t, 7, 1<<14)
	s := m.NewBatchSampler(1, 2, 0.89, 3)
	collect := func(windows [][2]uint64) []uint64 {
		var out []uint64
		for _, w := range windows {
			s.RangeFaults(w[0], w[1]-w[0], func(addr uint64, f CellFault) {
				out = append(out, addr<<9|uint64(f.Bit)<<1|uint64(f.Polarity))
			})
		}
		return out
	}
	whole := collect([][2]uint64{{0, 1 << 14}})
	if len(whole) == 0 {
		t.Fatal("no faults drawn on a sensitive PC at 0.89V; test is vacuous")
	}
	split := collect([][2]uint64{{0, 5000}, {5000, 1 << 14}})
	if len(whole) != len(split) {
		t.Fatalf("split query changed fault count: %d vs %d", len(whole), len(split))
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("fault %d differs between whole and split queries", i)
		}
	}
	// Ascending (addr, bit) order.
	for i := 1; i < len(whole); i++ {
		if whole[i]>>1 <= whole[i-1]>>1 {
			t.Fatalf("faults not strictly ascending at %d", i)
		}
	}
	// WordFaults must agree with RangeFaults word by word.
	seen := map[uint64][]CellFault{}
	s.RangeFaults(0, 1<<14, func(addr uint64, f CellFault) {
		seen[addr] = append(seen[addr], f)
	})
	for addr, want := range seen {
		got := s.WordFaults(addr, nil)
		if len(got) != len(want) {
			t.Fatalf("addr %d: WordFaults %d vs RangeFaults %d", addr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("addr %d fault %d differs", addr, i)
			}
		}
	}
}

// TestSparseClusterConfinement: above the bulk knee, sparse draws must
// stay inside weak clusters exactly like the bit-exact path.
func TestSparseClusterConfinement(t *testing.T) {
	m := sparseModel(t, 9, 1<<14)
	s := m.NewSampler(1, 2, 0.90)
	n := 0
	s.RangeFaults(0, 1<<14, func(addr uint64, f CellFault) {
		n++
		if !s.InCluster(addr) {
			t.Fatalf("sparse fault outside cluster at addr %d", addr)
		}
	})
	if !s.Sparse() {
		t.Fatal("sampler not in sparse mode")
	}
}

// TestSparseBatchRepsVary: sparse draws are keyed on rep, so batch
// repetitions realize different fault sets while staying unbiased.
func TestSparseBatchRepsVary(t *testing.T) {
	const words = 1 << 16
	m := sparseModel(t, 23, words)
	count := func(rep uint64) float64 {
		s := m.NewBatchSampler(1, 2, 0.90, rep)
		f, _ := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
		return float64(f.OneToZero)
	}
	base := count(0)
	varies := false
	var sum float64
	const reps = 20
	for rep := uint64(0); rep < reps; rep++ {
		c := count(rep)
		sum += c
		if c != base {
			varies = true
		}
	}
	if !varies {
		t.Fatal("sparse batch reps produced identical fault counts")
	}
	want := m.ExpectedFaults(1, 2, 0.90, OneToZero, 0, words)
	if want < 20 {
		t.Skipf("expectation %v too small for a stable check", want)
	}
	mean := sum / reps
	if mean < want*0.8 || mean > want*1.25 {
		t.Fatalf("rep-averaged sparse count %v vs expectation %v", mean, want)
	}
}

// TestSparseAggregateFaultyWordsPlausible: in the aggregate regime the
// drawn faulty-word count must respect the physical bounds relative to
// the drawn flip totals and the window size.
func TestSparseAggregateFaultyWordsPlausible(t *testing.T) {
	const words = 1 << 18
	m := sparseModel(t, 5, words)
	for _, v := range []float64{0.87, 0.855, 0.85, 0.84} {
		s := m.NewSampler(0, 3, v)
		f, fw := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
		total := uint64(f.Total())
		if fw > words {
			t.Fatalf("%vV: faulty words %d exceed window %d", v, fw, words)
		}
		if fw > total {
			t.Fatalf("%vV: faulty words %d exceed total flips %d", v, fw, total)
		}
		if total > 0 && fw < (total+255)/256 {
			t.Fatalf("%vV: %d flips cannot fit in %d words", v, total, fw)
		}
	}
	// At 0.84V essentially every word must be faulty.
	s := m.NewSampler(0, 3, 0.84)
	_, fw := s.CheckUniformRange(0, words, pattern.AllOnesWord, pattern.AllOnesWord)
	if float64(fw) < 0.99*words {
		t.Fatalf("collapse voltage left %d of %d words clean", words-fw, words)
	}
}

// BenchmarkSparseRowFaults is the sparse kernel's rung of the benchmark
// ladder: one 8192-bit row per op at ~460 drawn faults (5.6% of cells,
// about a dozen position collisions), the per-row load of the deepest
// undervolt points that still enumerate positions. Draws, the packed
// key sort and the collision walk all run; the visitor only counts.
func BenchmarkSparseRowFaults(b *testing.B) {
	const wordsPerRow = 32 // sparseModel's geometry: 8192-bit rows
	m := sparseModel(b, 17, 1<<16)
	s := m.NewSampler(0, 12, 0.85)
	d := newRowDraw(wordsPerRow*256, 460.0/8192, 0)
	faults := 0
	visit := func(uint64, CellFault) { faults++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := uint64(i % 2048)
		s.sparseRowFaults(row, row*wordsPerRow, (row+1)*wordsPerRow, &d, visit)
	}
	b.ReportMetric(float64(faults)/float64(b.N), "faults/row")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}
