package hbm

import (
	"reflect"
	"sort"

	"hbmvolt/internal/pattern"
)

// pageWords is the allocation granule of the sparse store: 4096 words =
// 128 KB.
const pageWords = 4096

type page [pageWords]pattern.Word

// fill is the background content of a run of unallocated words: every
// word reads W, or P.Word(addr) when a pattern P is set. P is only ever
// a comparable value (see WritePattern), so fills compare with ==.
type fill struct {
	W pattern.Word
	P pattern.Pattern
}

// word returns the background word at addr.
func (f fill) word(addr uint64) pattern.Word {
	if f.P != nil {
		return f.P.Word(addr)
	}
	return f.W
}

// fillRun is a half-open word-address range [Lo, Hi) whose unallocated
// words read its fill.
type fillRun struct {
	Lo, Hi uint64
	fill
}

// pagedMemory is a sparse word store: an ordered list of fill runs
// (uniform words or test patterns) covering the whole address space,
// with materialized pages layered on top for words that deviate from
// their run's fill. Writing a test pattern over a 256 MB pseudo channel
// is O(existing runs + pages), and reading a fill region back costs
// O(runs + pages touched) — the trick that makes Algorithm 1 runnable
// at realistic memSize.
type pagedMemory struct {
	words uint64
	// fills is sorted, non-overlapping, and covers [0, words) exactly;
	// adjacent runs always differ in fill.
	fills []fillRun
	pages map[uint64]*page
}

func newPagedMemory(words uint64) *pagedMemory {
	return &pagedMemory{
		words: words,
		fills: []fillRun{{Lo: 0, Hi: words}},
		pages: make(map[uint64]*page),
	}
}

// Fill resets the whole region to the given word.
func (m *pagedMemory) Fill(w pattern.Word) {
	m.fills = m.fills[:0]
	m.fills = append(m.fills, fillRun{Lo: 0, Hi: m.words, fill: fill{W: w}})
	m.pages = make(map[uint64]*page)
}

// fillIndex returns the index of the fill run containing addr.
func (m *pagedMemory) fillIndex(addr uint64) int {
	return sort.Search(len(m.fills), func(i int) bool { return m.fills[i].Hi > addr })
}

// fillAt returns the background word at addr (ignoring pages).
func (m *pagedMemory) fillAt(addr uint64) pattern.Word {
	return m.fills[m.fillIndex(addr)].word(addr)
}

// Write stores w at addr.
func (m *pagedMemory) Write(addr uint64, w pattern.Word) {
	pi := addr / pageWords
	p, ok := m.pages[pi]
	if !ok {
		if w == m.fillAt(addr) {
			return // matches the background; nothing to materialize
		}
		p = m.materialize(pi)
	}
	p[addr%pageWords] = w
}

// materialize allocates page pi initialized from the fill runs it spans.
func (m *pagedMemory) materialize(pi uint64) *page {
	p := &page{}
	lo := pi * pageWords
	hi := lo + pageWords
	if hi > m.words {
		hi = m.words
	}
	for i := m.fillIndex(lo); i < len(m.fills) && m.fills[i].Lo < hi; i++ {
		r := m.fills[i]
		a, b := r.Lo, r.Hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		for j := a; j < b; j++ {
			p[j-lo] = r.word(j)
		}
	}
	m.pages[pi] = p
	return p
}

// WritePattern stores p's words over [start, start+count). Uniform and
// comparable patterns become one fill run; a pattern whose dynamic
// value cannot be compared is stored word by word.
func (m *pagedMemory) WritePattern(start, count uint64, p pattern.Pattern) {
	if w, ok := pattern.UniformWord(p); ok {
		m.writeFill(start, count, fill{W: w})
		return
	}
	// Fill runs compare patterns with == to merge neighbours and to
	// recognize the pattern that wrote them; that must not panic.
	if reflect.ValueOf(p).Comparable() {
		m.writeFill(start, count, fill{P: p})
		return
	}
	for a := start; a < start+count; a++ {
		m.Write(a, p.Word(a))
	}
}

// writeFill sets [start, start+count) to f. Cost is O(existing fill
// runs + allocated pages), independent of count: the fill-run list is
// spliced and fully covered pages are dropped; only pages straddling
// the range edges are patched word by word.
func (m *pagedMemory) writeFill(start, count uint64, f fill) {
	if count == 0 {
		return
	}
	end := start + count
	// Splice the fill-run list: keep runs outside [start, end), clip
	// the two it cuts, insert the new run, and merge equal neighbours.
	first, last := m.fillIndex(start), m.fillIndex(end-1)
	out := make([]fillRun, 0, len(m.fills)+2)
	out = append(out, m.fills[:first]...)
	if r := m.fills[first]; r.Lo < start {
		r.Hi = start
		out = append(out, r)
	}
	out = append(out, fillRun{Lo: start, Hi: end, fill: f})
	if r := m.fills[last]; r.Hi > end {
		r.Lo = end
		out = append(out, r)
	}
	out = append(out, m.fills[last+1:]...)
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && merged[n-1].fill == r.fill {
			merged[n-1].Hi = r.Hi
			continue
		}
		merged = append(merged, r)
	}
	m.fills = merged

	// Reconcile the page overlay: pages fully inside the range are now
	// redundant; edge pages keep their out-of-range words and take the
	// new fill inside it.
	for pi, p := range m.pages {
		plo, phi := pi*pageWords, pi*pageWords+pageWords
		if phi > m.words {
			phi = m.words
		}
		if plo >= end || phi <= start {
			continue
		}
		if plo >= start && phi <= end {
			delete(m.pages, pi)
			continue
		}
		a, b := plo, phi
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		for j := a; j < b; j++ {
			p[j-plo] = f.word(j)
		}
	}
}

// Read returns the word at addr.
func (m *pagedMemory) Read(addr uint64) pattern.Word {
	if p, ok := m.pages[addr/pageWords]; ok {
		return p[addr%pageWords]
	}
	return m.fillAt(addr)
}

// Runs walks [start, start+count) as maximal homogeneous runs, invoking
// visit for each. A run is either page-backed (words != nil holds the
// run's slice of the page) or a fill run (words == nil; word a reads
// bg.word(a)). Runs are visited in ascending address order and cover
// the window exactly once; fill runs never cross a fill boundary.
func (m *pagedMemory) Runs(start, count uint64, visit func(runStart, runCount uint64, words []pattern.Word, bg fill)) {
	end := start + count
	a := start
	for a < end {
		pi := a / pageWords
		if p, ok := m.pages[pi]; ok {
			b := (pi + 1) * pageWords
			if b > end {
				b = end
			}
			off := a % pageWords
			visit(a, b-a, p[off:off+(b-a)], fill{})
			a = b
			continue
		}
		// Fill span: extend across unallocated pages, clipped to the
		// containing fill run.
		fi := m.fillIndex(a)
		b := m.fills[fi].Hi
		if b > end {
			b = end
		}
		// Stop at the first allocated page inside the span.
		for npi := pi + 1; npi*pageWords < b; npi++ {
			if _, ok := m.pages[npi]; ok {
				b = npi * pageWords
				break
			}
		}
		visit(a, b-a, nil, m.fills[fi].fill)
		a = b
	}
}

// AllocatedPages reports how many pages have materialized (observability
// for tests and memory budgeting).
func (m *pagedMemory) AllocatedPages() int { return len(m.pages) }
