package index

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
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
// size, gaps and counts on both sides of every varint width, and the seek
// patterns the three callers make — every graph in turn (the filter's
// intersection), one graph from a fresh cursor (Grapes' locate), strides that
// cross several blocks at once, absent graphs, and graphs past the end.
func TestPostingCursor(t *testing.T) {
	shapes := map[string]func(i int) posting{
		"dense":       func(i int) posting { return posting{int32(i), 1} },
		"every-third": func(i int) posting { return posting{int32(3*i + 1), int32(i%5 + 1)} },
		"wide-gaps":   func(i int) posting { return posting{int32(i * 129), int32(i%3 + 126)} },       // 2-byte gaps, counts across 127/128
		"huge":        func(i int) posting { return posting{int32(i * 70000), int32(1<<14 - 2 + i)} }, // 3-byte gaps, counts across 2¹⁴
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

// TestPostingBytes pins the packing's point: dense graph IDs and small counts
// cost two bytes a posting, a skip entry per block after the first on top.
func TestPostingBytes(t *testing.T) {
	ps := make([]posting, 300)
	for i := range ps {
		ps[i] = posting{int32(i), int32(i%100 + 1)}
	}
	if got, want := pack(t, ps).Bytes(), 2*300+4*skipEntryBytes; got != want {
		t.Errorf("300 dense postings take %d bytes, want %d", got, want)
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
	f.Fuzz(func(t *testing.T, list, seeks []byte) {
		var ps []posting
		next := int32(0)
		// Long enough for several blocks; growing a list a posting at a time
		// is quadratic.
		for ; len(list) >= 2 && len(ps) < 5*postingBlock; list = list[2:] {
			// A byte each for gap and count, stretched so that every
			// varint width turns up.
			gap, count := int32(list[0]), int32(list[1])
			if gap >= 0xF0 {
				gap = (gap - 0xEF) << 13
			}
			if count >= 0xF0 {
				count = (count - 0xEF) << 17
			}
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
