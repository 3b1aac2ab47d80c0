package hbm

import (
	"testing"

	"hbmvolt/internal/pattern"
	"hbmvolt/internal/prf"
)

// refMemory is the dead-simple dense reference the sparse store is
// checked against.
type refMemory struct{ words []pattern.Word }

func newRefMemory(n uint64) *refMemory { return &refMemory{words: make([]pattern.Word, n)} }

func (r *refMemory) WriteUniform(start, count uint64, w pattern.Word) {
	for a := start; a < start+count; a++ {
		r.words[a] = w
	}
}

func (r *refMemory) WritePattern(start, count uint64, p pattern.Pattern) {
	for a := start; a < start+count; a++ {
		r.words[a] = p.Word(a)
	}
}

func wordFor(i uint64) pattern.Word { return pattern.Word{i, ^i, i * 3, i ^ 0xabc} }

// rangePatterns are the address-dependent patterns the range-write
// cases draw from, plus one uniform pattern to exercise normalization.
var rangePatterns = []pattern.Pattern{
	pattern.Checkerboard(), pattern.WalkingOnes(), pattern.AddressInData(),
	pattern.Random(7), pattern.AllOnes(),
}

// checkFillRuns asserts the fill-run invariants: sorted, covering
// [0, words) exactly, and merged (no equal neighbours).
func checkFillRuns(t *testing.T, m *pagedMemory, words uint64) {
	t.Helper()
	prev := uint64(0)
	for i, r := range m.fills {
		if r.Lo != prev || r.Hi <= r.Lo {
			t.Fatalf("fill run %d = %+v breaks coverage at %d", i, r, prev)
		}
		if i > 0 && m.fills[i-1].fill == r.fill {
			t.Fatalf("unmerged equal neighbours at run %d", i)
		}
		prev = r.Hi
	}
	if prev != words {
		t.Fatalf("fill runs end at %d, want %d", prev, words)
	}
}

func TestPagedMemoryAgainstReference(t *testing.T) {
	const words = 1 << 15
	m := newPagedMemory(words)
	ref := newRefMemory(words)
	src := prf.NewSource(42)
	for op := 0; op < 400; op++ {
		switch src.Intn(4) {
		case 0: // uniform range write
			start := uint64(src.Intn(words))
			count := uint64(src.Intn(words - int(start)))
			w := wordFor(uint64(src.Intn(7)))
			m.writeFill(start, count, fill{W: w})
			ref.WriteUniform(start, count, w)
		case 1: // single word write
			a := uint64(src.Intn(words))
			w := wordFor(uint64(src.Intn(1000)))
			m.Write(a, w)
			ref.words[a] = w
		case 2: // full fill
			if src.Intn(10) == 0 {
				w := wordFor(uint64(src.Intn(5)))
				m.Fill(w)
				ref.WriteUniform(0, words, w)
			}
		case 3: // pattern range write
			start := uint64(src.Intn(words))
			count := uint64(src.Intn(words - int(start)))
			p := rangePatterns[src.Intn(len(rangePatterns))]
			m.WritePattern(start, count, p)
			ref.WritePattern(start, count, p)
		}
	}
	for a := uint64(0); a < words; a++ {
		if got, want := m.Read(a), ref.words[a]; got != want {
			t.Fatalf("addr %d: %v, want %v", a, got, want)
		}
	}
	checkFillRuns(t, m, words)
}

func TestPagedMemoryRunsCoverExactly(t *testing.T) {
	const words = 1 << 15
	m := newPagedMemory(words)
	src := prf.NewSource(7)
	for op := 0; op < 120; op++ {
		switch src.Intn(3) {
		case 0:
			start := uint64(src.Intn(words))
			m.writeFill(start, uint64(src.Intn(words-int(start))), fill{W: wordFor(uint64(src.Intn(4)))})
		case 1:
			m.Write(uint64(src.Intn(words)), wordFor(uint64(src.Intn(100))))
		case 2:
			start := uint64(src.Intn(words))
			m.WritePattern(start, uint64(src.Intn(words-int(start))), rangePatterns[src.Intn(len(rangePatterns))])
		}
	}
	checkFillRuns(t, m, words)
	windows := [][2]uint64{{0, words}, {13, 29999}, {4096, 8192}, {4100, 4}, {words - 1, 1}}
	for _, win := range windows {
		next := win[0]
		m.Runs(win[0], win[1], func(runStart, runCount uint64, ws []pattern.Word, bg fill) {
			if runStart != next {
				t.Fatalf("window %v: run starts at %d, want %d", win, runStart, next)
			}
			if runCount == 0 {
				t.Fatalf("window %v: empty run at %d", win, runStart)
			}
			for i := uint64(0); i < runCount; i++ {
				want := m.Read(runStart + i)
				got := bg.word(runStart + i)
				if ws != nil {
					got = ws[i]
				}
				if got != want {
					t.Fatalf("window %v addr %d: run yields %v, Read says %v", win, runStart+i, got, want)
				}
			}
			next = runStart + runCount
		})
		if next != win[0]+win[1] {
			t.Fatalf("window %v: runs end at %d, want %d", win, next, win[0]+win[1])
		}
	}
}

func TestPagedMemoryUniformWriteIsSparse(t *testing.T) {
	const words = 8 << 20 // a full-size 256 MB pseudo channel
	m := newPagedMemory(words)
	m.writeFill(0, words, fill{W: pattern.AllOnesWord})
	if n := m.AllocatedPages(); n != 0 {
		t.Fatalf("uniform fill materialized %d pages", n)
	}
	// A partial uniform overwrite still allocates nothing.
	m.writeFill(1000, 4<<20, fill{W: pattern.AllZerosWord})
	if n := m.AllocatedPages(); n != 0 {
		t.Fatalf("partial uniform fill materialized %d pages", n)
	}
	if m.Read(999) != pattern.AllOnesWord || m.Read(1000) != pattern.AllZerosWord {
		t.Fatal("fill boundary wrong")
	}
	if m.Read(1000+4<<20) != pattern.AllOnesWord {
		t.Fatal("tail of old fill lost")
	}
	// Deviating words materialize pages; re-filling over them reclaims.
	m.Write(5000, wordFor(1))
	if m.AllocatedPages() != 1 {
		t.Fatal("deviating word did not materialize")
	}
	m.writeFill(0, words, fill{W: pattern.AllZerosWord})
	if m.AllocatedPages() != 0 {
		t.Fatal("covered page not reclaimed")
	}
	if len(m.fills) != 1 {
		t.Fatalf("fills not merged: %d runs", len(m.fills))
	}
}
