package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/psi-graph/psi/internal/gen"
)

// posting is the unpacked form the tests hold a list in: the slice oracle.
type posting struct{ graph, count int32 }

// pack builds a list the way a fold does: measured, carved from a slab that
// must come out exactly used, filled by push.
func pack(t testing.TB, ps []posting) PostingList {
	t.Helper()
	var z listSize
	for _, p := range ps {
		z.add(p.graph, p.count)
	}
	slab := make([]byte, z.bytes())
	l := carve(&slab, z)
	for _, p := range ps {
		l.push(p.graph, p.count)
	}
	if len(slab) != 0 || l.Len() != len(ps) || l.Bytes() != z.bytes() {
		t.Fatalf("list of %d postings measured %d bytes, holds %d postings in %d, %d of the slab left", len(ps), z.bytes(), l.Len(), l.Bytes(), len(slab))
	}
	return l
}

// grow builds the same list one posting at a time, the way WithGraph does:
// each step copies it onto the end of a new slab that already holds other
// lists' bytes.
func grow(ps []posting) PostingList {
	var l PostingList
	for i, p := range ps {
		_, l = l.appendWith(make([]byte, i%3), p.graph, p.count)
	}
	return l
}

func unpack(l PostingList) []posting {
	var out []posting
	for c := l.Cursor(); c.Next(); {
		out = append(out, posting{c.Graph(), c.Count()})
	}
	return out
}

// seekOracle is what Seek must report, from the slice.
func seekOracle(ps []posting, target int32) (ordinal int, count int32, ok bool) {
	at, ok := slices.BinarySearchFunc(ps, target, func(p posting, t int32) int { return int(p.graph) - int(t) })
	if !ok {
		return at, 0, false
	}
	return at, ps[at].count, true
}

// checkSeeks runs one ascending sequence of targets over a fresh cursor.
func checkSeeks(t *testing.T, name string, l PostingList, ps []posting, targets []int32) {
	t.Helper()
	c := l.Cursor()
	for _, target := range targets {
		ord, count, ok := c.Seek(target)
		wantOrd, wantCount, wantOK := seekOracle(ps, target)
		if ok != wantOK || (ok && (ord != wantOrd || count != wantCount)) {
			t.Fatalf("%s: Seek(%d) in %v = (%d, %d, %v), want (%d, %d, %v)", name, target, targets, ord, count, ok, wantOrd, wantCount, wantOK)
		}
		if done := wantOrd == len(ps); c.Done() != done {
			t.Fatalf("%s: after Seek(%d) Done = %v, want %v", name, target, c.Done(), done)
		}
		if !c.Done() && (int(c.Graph()) != int(ps[wantOrd].graph) || c.Count() != ps[wantOrd].count) {
			t.Fatalf("%s: after Seek(%d) cursor on (%d, %d), want %v", name, target, c.Graph(), c.Count(), ps[wantOrd])
		}
	}
}

// TestPostingCursor is the table: list lengths on both sides of the block
// size, gaps and counts on both sides of every varint width — the head's
// (gap<<4: 2³, 2¹⁰, 2¹⁷, and past 32 bits), the count nibble's escape (15, 16,
// 17) and counts no table holds (0, negative, 2³¹-1) — and the seek
// patterns the three callers make — every graph in turn (the filter's
// intersection), one graph from a fresh cursor (Grapes' locate), strides that
// cross several blocks at once, absent graphs, and graphs past the end.
func TestPostingCursor(t *testing.T) {
	shapes := map[string]func(i int) posting{
		"dense":       func(i int) posting { return posting{int32(i), 1} },
		"every-third": func(i int) posting { return posting{int32(3*i + 1), int32(i%5 + 1)} },
		"wide-gaps":   func(i int) posting { return posting{int32(i * 129), int32(i%3 + 126)} },       // 2-byte gaps, counts across 127/128
		"huge":        func(i int) posting { return posting{int32(i * 70000), int32(1<<14 - 2 + i)} }, // 3-byte gaps, counts across 2¹⁴
		"head-edges":  headEdges,
		"far-first":   func(i int) posting { return posting{1<<30 + int32(i), int32(i%17 + 1)} }, // a first head past 32 bits
	}
	for shape, at := range shapes {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 128, 129, 200} {
			name := fmt.Sprintf("%s/%d", shape, n)
			ps := make([]posting, n)
			for i := range ps {
				ps[i] = at(i)
			}
			l := pack(t, ps)
			if got := unpack(l); !slices.Equal(got, ps) {
				t.Fatalf("%s: unpacked %v, packed %v", name, got, ps)
			}
			if g := grow(ps); !slices.Equal(g.data, l.data) || g.n != l.n || g.next != l.next {
				t.Fatalf("%s: the list grown a posting at a time differs from the one built whole", name)
			}
			if view := (PostingList{data: l.data, n: l.n}); view.tail() != l.next {
				t.Fatalf("%s: a view reads its base as %d off the bytes, the list was written up to %d", name, view.tail(), l.next)
			}
			if want := (n - 1) / postingBlock * skipEntryBytes; n > 0 && skipBytes(int32(n)) != want {
				t.Fatalf("%s: skip table of %d bytes, want %d", name, skipBytes(int32(n)), want)
			}
			last := int32(-1)
			if n > 0 {
				last = ps[n-1].graph
			}
			var every, present []int32
			for g := int32(0); g <= last+2; g += max(1, (last+2)/400) {
				every = append(every, g)
			}
			for _, p := range ps {
				present = append(present, p.graph)
			}
			checkSeeks(t, name+" every", l, ps, every)
			checkSeeks(t, name+" present", l, ps, present)
			checkSeeks(t, name+" repeated", l, ps, []int32{last, last, last + 1, last + 1})
			for _, target := range append(every, -1, last+1, last+1000) {
				checkSeeks(t, name+" fresh", l, ps, []int32{target})
			}
			for stride := 1; stride <= n; stride = stride*3 + 1 {
				var targets []int32
				for i := stride - 1; i < n; i += stride {
					targets = append(targets, ps[i].graph, ps[i].graph+1)
				}
				checkSeeks(t, fmt.Sprintf("%s stride %d", name, stride), l, ps, targets)
			}
		}
	}
}

// headEdges cycles through the gaps either side of each head varint width and
// the counts either side of the nibble's escape and of int32's range.
func headEdges(i int) posting {
	gaps := []int32{0, 1<<3 - 1, 1 << 3, 1<<10 - 1, 1 << 10, 1<<17 - 1, 1 << 17}
	counts := []int32{15, 16, 17, 1, 0, 1<<31 - 1, -1, 14, 2}
	graph := int32(-1)
	for j := 0; j <= i; j++ {
		graph += gaps[j%len(gaps)] + 1
	}
	return posting{graph, counts[i%len(counts)]}
}

// TestPostingBytes pins the packing's point: dense graph IDs cost one byte a
// posting while the count fits the head's nibble (1 to 15) and two past it,
// a skip entry per block after the first on top.
func TestPostingBytes(t *testing.T) {
	for _, c := range []struct {
		counts     string
		count      func(i int) int32
		perPosting int
	}{
		{"1..15", func(i int) int32 { return int32(i%15 + 1) }, 1},
		{"16..115", func(i int) int32 { return int32(i%100 + 16) }, 2},
	} {
		ps := make([]posting, 300)
		for i := range ps {
			ps[i] = posting{int32(i), c.count(i)}
		}
		if got, want := pack(t, ps).Bytes(), c.perPosting*300+4*skipEntryBytes; got != want {
			t.Errorf("300 dense postings with counts %s take %d bytes, want %d", c.counts, got, want)
		}
	}
}

// TestPostingBytesOnSelectiveShape holds the format to what it saves on the
// dataset it was measured on, the benchmark's 300 × 50-vertex, 8-label
// synthetic set indexed at two shards: 1.59 M postings, 90 % of them with a
// gap below 8 and a count of 15 at most, one head byte each. The two-varint
// form it replaced took 2.01 bytes a posting there.
func TestPostingBytesOnSelectiveShape(t *testing.T) {
	ds := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 300, AvgNodes: 50, NodeSpread: 16, Density: 5.0 / 50, Labels: 8}, 20170321)
	x, err := Build(context.Background(), KindPath, ds, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	st := x.Stats()
	if perPosting := float64(st.PostingBytes) / float64(st.Postings); st.Postings == 0 || perPosting > 1.15 {
		t.Errorf("%d postings in %d bytes, %.3f a posting, want at most 1.15", st.Postings, st.PostingBytes, perPosting)
	}
}

// TestPostingSeekBackwardsPanics: a cursor has passed what is behind it and
// would call a graph it skipped absent, so asking is a bug, reported as one.
func TestPostingSeekBackwardsPanics(t *testing.T) {
	l := pack(t, []posting{{2, 1}, {5, 1}, {9, 1}})
	c := l.Cursor()
	if _, _, ok := c.Seek(5); !ok {
		t.Fatal("Seek(5) missed")
	}
	if _, _, ok := c.Seek(5); !ok {
		t.Fatal("Seek(5) again missed: an equal target is not backwards")
	}
	defer func() {
		if recover() == nil {
			t.Error("Seek(4) after Seek(5) did not panic")
		}
	}()
	c.Seek(4)
}

// TestPostingWithLeavesReceiverAlone: WithGraph's copy-on-write append must
// not touch bytes other indexes read, whether or not the new posting opens a
// block — and must write the copy into the slab it measured room for, after
// what the slab already holds, leaving no spare byte.
func TestPostingWithLeavesReceiverAlone(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128} {
		ps := make([]posting, n)
		for i := range ps {
			ps[i] = posting{int32(2 * i), 3}
		}
		l := pack(t, ps)
		before := slices.Clone(l.data)
		z := l.size()
		z.add(int32(2*n+7), 1<<20)
		held := []byte{7, 7, 7}
		slab := append(make([]byte, 0, len(held)+z.bytes()), held...)
		base := &slab[0]
		slab, grown := l.appendWith(slab, int32(2*n+7), 1<<20)
		if !slices.Equal(l.data, before) || l.Len() != n {
			t.Fatalf("n=%d: appendWith changed its receiver", n)
		}
		if want := append(slices.Clone(ps), posting{int32(2*n + 7), 1 << 20}); !slices.Equal(unpack(grown), want) {
			t.Fatalf("n=%d: grown list reads %v", n, unpack(grown))
		}
		if &slab[0] != base || len(slab) != len(held)+z.bytes() || !slices.Equal(slab[:len(held)], held) || !slices.Equal(slab[len(held):], grown.data) {
			t.Errorf("n=%d: the copy is not the measured %d bytes after the slab's %d: slab %d bytes", n, z.bytes(), len(held), len(slab))
		}
		if cap(grown.data) != len(grown.data) {
			t.Errorf("n=%d: grown list has %d spare bytes", n, cap(grown.data)-len(grown.data))
		}
	}
}

// gapEdges are the gaps where a posting's head varint, gap<<4 | nibble,
// gains a byte (2³, 2¹⁰, 2¹⁷, 2²⁴); countEdges the counts where the escape's
// second varint, count-16, does (16, 16+2⁷, 16+2¹⁴) and the top of int32.
var (
	gapEdges   = [4]uint32{1 << 3, 1 << 10, 1 << 17, 1 << 24}
	countEdges = [4]uint32{16, 16 + 1<<7, 16 + 1<<14, 1<<31 - 1}
)

// fuzzValue maps one FuzzPostings byte to a gap or a count: 0x00..0xDF to
// itself; 0xE0..0xEF to an edge of edges minus 1, plus 0, 1 or 2 (edge
// (b-0xE0)/4, delta b%4-1), the sum taken in uint32 so that the top count
// wraps to negative int32s; and 0xF0..0xFF to 1..16 times 2^shift.
func fuzzValue(b byte, edges [4]uint32, shift uint) int32 {
	switch {
	case b >= 0xF0:
		return int32(b-0xEF) << shift
	case b >= 0xE0:
		return int32(edges[(b-0xE0)/4] + uint32(b%4) - 1)
	}
	return int32(b)
}

// FuzzPostings builds a random ascending list from the input's first part and
// runs a random ascending seek sequence from the rest against the slice
// oracle, on the list built whole and on the one grown posting by posting.
func FuzzPostings(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1}, []byte{0, 1, 1})
	f.Add(binary.LittleEndian.AppendUint32(nil, 0x00ff7f80), []byte{0, 200, 255})
	long := make([]byte, 2*3*postingBlock)
	r := rand.New(rand.NewSource(1))
	for i := range long {
		long[i] = byte(r.Intn(256)) >> (i % 2 * 6) // wild gaps, small counts
	}
	f.Add(long, []byte{3, 0, 0, 90, 255, 255, 1})
	// The head's edges: counts either side of the nibble's escape (14..17)
	// and 0; gaps either side of the one-byte head (7, 8) and 2¹⁷ (0xFF),
	// which needs a four-byte head.
	f.Add([]byte{0, 14, 0, 15, 0, 16, 0, 17, 0, 0, 0, 1}, []byte{0, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{7, 1, 8, 1, 7, 16, 8, 17, 0xFF, 1, 0xFF, 16, 7, 0, 8, 15}, []byte{8, 9, 0xFF, 0xFF, 0xFF, 8})
	edges := make([]byte, 0, 2*3*postingBlock)
	for i := 0; len(edges) < cap(edges); i++ {
		edges = append(edges, []byte{0, 7, 8, 0xF0, 0xFF}[i%5], []byte{15, 16, 17, 0, 1, 0xFF}[i%6])
	}
	f.Add(edges, []byte{40, 0xF8, 0, 0xFF, 2})
	// Every boundary byte once, as gap and as count: gaps 2¹⁰-1 and 2¹⁰,
	// where the head grows from two bytes to three, and 2¹⁷-1; counts either
	// side of the escape's second byte and of 2³¹.
	var bounds []byte
	for b := byte(0xE0); b < 0xF0; b++ {
		bounds = append(bounds, b, b)
	}
	f.Add(bounds, []byte{0xE4, 0xF8, 0xE8, 0})
	f.Fuzz(func(t *testing.T, list, seeks []byte) {
		var ps []posting
		next := int32(0)
		// Long enough for several blocks; growing a list a posting at a time
		// is quadratic.
		for ; len(list) >= 2 && len(ps) < 5*postingBlock; list = list[2:] {
			// A byte each for gap and count, stretched so that every
			// varint width and every width's edge turns up.
			gap, count := fuzzValue(list[0], gapEdges, 13), fuzzValue(list[1], countEdges, 17)
			if next > 1<<30-gap {
				break
			}
			ps = append(ps, posting{next + gap, count})
			next += gap + 1
		}
		whole, grown := pack(t, ps), grow(ps)
		if !slices.Equal(unpack(whole), ps) || !slices.Equal(whole.data, grown.data) {
			t.Fatalf("list %v: unpacks to %v, grown copy equal: %v", ps, unpack(whole), slices.Equal(whole.data, grown.data))
		}
		if view := (PostingList{data: whole.data, n: whole.n}); view.tail() != whole.next {
			t.Fatalf("list %v: a view reads its base as %d off the bytes, want %d", ps, view.tail(), whole.next)
		}
		var targets []int32
		target := int32(-1)
		for _, s := range seeks {
			step := int32(s)
			if step >= 0xF0 {
				step = (step - 0xEF) << 10
			}
			if target > 1<<30-step {
				break
			}
			target += step
			targets = append(targets, target)
		}
		checkSeeks(t, "fuzz", whole, ps, targets)
	})
}
