package faults

import (
	"cmp"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"

	"hbmvolt/internal/prf"
)

// keyRowShapes are the pinned inputs of TestSortFaultKeysGolden: row
// width in bits, faults per row and row count. The 8192 × 460 rows are
// the 0.85 V sparse regime (about a dozen collisions each); the narrow
// rows make nearly every key collide.
var keyRowShapes = []struct{ nBits, k, rows int }{
	{8192, 460, 64},
	{8192, 13, 256},
	{8192, 2000, 8},
	{256, 460, 16},
	{16, 100, 16},
	{1, 50, 4},
}

// TestSortFaultKeysGolden pins the row sort's output — every key,
// polarity bit included, so which polarity wins each collision is
// pinned too — over fixed PRF-generated rows. The sort is repo-owned,
// so this hash must not move with the Go toolchain; if it moves, the
// sparse realization (and every sparse golden) moved with it.
func TestSortFaultKeysGolden(t *testing.T) {
	const want = 0x7c4dfbdefa551090
	h := fnv.New64a()
	var b [8]byte
	for si, sh := range keyRowShapes {
		for r := 0; r < sh.rows; r++ {
			keys := prfKeys(uint64(si), uint64(r), sh.nBits, sh.k)
			sortFaultKeys(keys)
			for i, key := range keys {
				if i > 0 && key>>1 < keys[i-1]>>1 {
					t.Fatalf("shape %d row %d: not sorted at %d", si, r, i)
				}
				for j := range b {
					b[j] = byte(key >> (8 * j))
				}
				h.Write(b[:])
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("sorted fault keys hash to %#x, want %#x", got, want)
	}
}

// prfKeys draws k fault keys for a row of nBits bits the way
// sparseRowFaults does: one position word and one polarity word each.
func prfKeys(shape, row uint64, nBits, k int) []uint64 {
	src := prf.NewSource(prf.Hash3(0x5eed50a7, shape, row))
	keys := make([]uint64, k)
	for i := range keys {
		pos := src.Uint64() % uint64(nBits)
		pol := StuckAt0
		if src.Float64() < 0.3 {
			pol = StuckAt1
		}
		keys[i] = faultKey(pos, pol)
	}
	return keys
}

// TestSortFaultKeysMatchesSlices checks the packed sort against
// slices.SortFunc on {pos, polarity} structs compared by position — the
// sort the sparse kernel used before it owned one. Both are pdqsort, so
// they must leave every key, colliding ones included, in the same
// place. This is the only test a change to the toolchain's pdqsort
// should move.
func TestSortFaultKeysMatchesSlices(t *testing.T) {
	type posFault struct {
		pos uint64
		pol Polarity
	}
	rng := rand.New(rand.NewPCG(1, 2))
	cases := 10000
	if testing.Short() {
		cases = 1000
	}
	for c := 0; c < cases; c++ {
		n := rng.IntN(2001)
		if c < 300 {
			n = c // every short length, including 0 and the insertion-sort cutoff
		}
		distinct := uint64(1) << rng.IntN(14) // 1 … 8192 positions
		faults := make([]posFault, n)
		for i := range faults {
			faults[i] = posFault{rng.Uint64N(distinct), Polarity(rng.IntN(2))}
		}
		switch c % 5 {
		case 1:
			slices.SortFunc(faults, func(a, b posFault) int { return cmp.Compare(a.pos, b.pos) })
		case 2:
			slices.SortFunc(faults, func(a, b posFault) int { return cmp.Compare(b.pos, a.pos) })
		}
		keys := make([]uint64, n)
		for i, f := range faults {
			keys[i] = faultKey(f.pos, f.pol)
		}
		slices.SortFunc(faults, func(a, b posFault) int { return cmp.Compare(a.pos, b.pos) })
		sortFaultKeys(keys)
		for i, f := range faults {
			if keys[i] != faultKey(f.pos, f.pol) {
				t.Fatalf("case %d (n=%d, %d positions, shape %d): key %d is %#x, slices.SortFunc has %#x",
					c, n, distinct, c%5, i, keys[i], faultKey(f.pos, f.pol))
			}
		}
	}
}
