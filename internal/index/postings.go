package index

// Packed posting lists: the one representation of "which graphs hold this
// feature, how often" behind every index kind, built, grown, compacted or
// restored.
//
// A list is its postings in ascending graph order, each two unsigned varints:
// the gap from the smallest graph the posting could name (one past the
// previous posting's; 0 for the first) and the occurrence count. Graph IDs of
// a feature's list are dense and counts are small, so both are one byte almost
// always — 2 bytes a posting where a (int32, int32) pair took 8. A list of
// more than postingBlock postings is preceded by a skip table, one
// fixed-width entry per block after the first, so that reaching a graph costs
// a binary search over the table and at most one block of decoding:
//
//	list  = skip[⌈n/64⌉-1] posting[n]
//	skip  = base uint32 LE   the smallest graph the block's first posting could name
//	        at   uint32 LE   the offset of that posting from the start of the list
//	posting = uvarint(graph - base) uvarint(count)     base = previous graph + 1
//
// n itself is not in the bytes; it travels with them (PostingList). A build
// measures every list first (listSize), carves them all from one slab per
// index and fills them in graph order (push), so the slab has no slack; a
// snapshot format that stores an index as it is in memory would write that
// slab verbatim. The flat index's append writes a new slab the same way, each
// list it touches copied with the new posting on its end (appendWith).
//
// Lists are read through a Cursor, which only moves forward: the filter's
// intersection, Grapes' location lookup and the flat index's append all ask
// for graphs in ascending order, and a forward cursor serves them at one
// sequential pass over the bytes.

import (
	"encoding/binary"
	"math"
	"slices"
)

const (
	// postingBlock is how many postings one skip entry covers.
	postingBlock   = 64
	skipEntryBytes = 8
)

// PostingList is one path feature's per-graph occurrence counts, ascending by
// graph ID — the common shape the shared filter logic consumes whether the
// backing structure is a trie (Grapes, GGSX) or a flat sorted array (FTV).
// Builds fold graphs in ID order, so lists are born sorted. The zero value is
// the empty list. A list is immutable once built; copies share its bytes, and
// the flat index hands out views of its slab (Path.listOf).
type PostingList struct {
	data []byte // the skip table, then the postings
	n    int32
	next int32 // one past the last posting's graph: the base of a further one
}

// Len is the number of postings.
func (l PostingList) Len() int { return int(l.n) }

// Bytes is the memory the postings and their skip table take.
func (l PostingList) Bytes() int { return len(l.data) }

// skipBytes is the length of the skip table of a list of n postings.
func skipBytes(n int32) int { return int((n-1)/postingBlock) * skipEntryBytes }

// listSize measures a list before it is written: add its postings in
// ascending graph order, then carve.
type listSize struct {
	n, next int32
	body    int
}

func (z *listSize) add(graph, count int32) {
	z.body += uvarintLen(uint32(graph-z.next)) + uvarintLen(uint32(count))
	z.n++
	z.next = graph + 1
}

func (z listSize) bytes() int { return skipBytes(z.n) + z.body }

func uvarintLen(v uint32) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// measure sizes the list of an exported feature's postings.
func measure(ps []FeaturePosting) listSize {
	var z listSize
	for _, p := range ps {
		z.add(int32(p.GraphID), p.Count)
	}
	return z
}

// export unpacks the list into snapshot records, locations unset.
func (l PostingList) export() []FeaturePosting {
	ps := make([]FeaturePosting, 0, l.n)
	for c := l.Cursor(); c.Next(); {
		ps = append(ps, FeaturePosting{GraphID: int(c.graph), Count: c.count})
	}
	return ps
}

// carve takes the bytes of the list z measured from the front of slab and
// returns the list, empty, with its skip table in place: exactly z's postings
// must be pushed.
func carve(slab *[]byte, z listSize) PostingList {
	size := z.bytes()
	l := PostingList{data: (*slab)[:skipBytes(z.n):size]}
	*slab = (*slab)[size:]
	return l
}

// push appends a posting for a graph past every graph the list names. The
// list's bytes must have room (carve, appendWith) — or belong to nobody else.
func (l *PostingList) push(graph, count int32) {
	if l.n > 0 && l.n%postingBlock == 0 {
		e := l.data[(l.n/postingBlock-1)*skipEntryBytes:]
		binary.LittleEndian.PutUint32(e, uint32(l.next))
		binary.LittleEndian.PutUint32(e[4:], uint32(len(l.data)))
	}
	l.data = binary.AppendUvarint(l.data, uint64(uint32(graph-l.next)))
	l.data = binary.AppendUvarint(l.data, uint64(uint32(count)))
	l.n++
	l.next = graph + 1
}

// size measures the list as it stands.
func (l PostingList) size() listSize {
	return listSize{n: l.n, next: l.next, body: len(l.data) - skipBytes(l.n)}
}

// appendWith writes onto the end of slab a copy of the list with one more
// posting, for a graph past every graph it names, and returns the slab and
// the copy, a view of the slab's new tail. The receiver's bytes are left
// alone; other indexes read them. A slab with the room the copy measures
// (size, add) is not reallocated.
func (l PostingList) appendWith(slab []byte, graph, count int32) ([]byte, PostingList) {
	z := l.size()
	z.add(graph, count)
	slab = slices.Grow(slab, z.bytes())
	from, skip := len(slab), skipBytes(l.n)
	grown := skipBytes(z.n) - skip // a posting that opens a block adds its skip entry
	slab = append(slab, l.data[:skip]...)
	for e := slab[from:]; grown > 0 && len(e) > 0; e = e[skipEntryBytes:] {
		binary.LittleEndian.PutUint32(e[4:], binary.LittleEndian.Uint32(e[4:])+uint32(grown))
	}
	slab = append(slab, make([]byte, grown)...)
	slab = append(slab, l.data[skip:]...)
	out := PostingList{data: slab[from:], n: l.n, next: l.next}
	out.push(graph, count) // within the capacity slices.Grow made
	end := from + len(out.data)
	out.data = out.data[:len(out.data):len(out.data)]
	return slab[:end], out
}

// Cursor reads a PostingList front to back. It stands on one posting at a
// time — before the first when new, and Done once it has run off the end —
// and moves by Next or Seek, never backwards.
type Cursor struct {
	data  []byte
	n     int32
	ord   int32 // the current posting's position in the list
	graph int32
	count int32
	pos   int   // where the posting after the current one starts
	floor int32 // the last Seek's target
}

// Cursor returns a cursor before the list's first posting.
func (l PostingList) Cursor() Cursor {
	return Cursor{data: l.data, n: l.n, ord: -1, graph: -1, pos: skipBytes(l.n), floor: math.MinInt32}
}

// Done reports whether the cursor has run off the end of the list.
func (c *Cursor) Done() bool { return c.ord >= c.n }

// Graph and Count are the current posting's, valid after a Next that returned
// true or a Seek that left the cursor not Done.
func (c *Cursor) Graph() int32 { return c.graph }
func (c *Cursor) Count() int32 { return c.count }

// Next moves to the following posting; false once there is none.
func (c *Cursor) Next() bool {
	c.scan(math.MinInt32)
	return !c.Done()
}

// Seek moves to the first posting at or after the current one whose graph is
// at least target, and reports that posting's position in the list and its
// count; ok is whether it is target's own, and false with the cursor Done
// when the list has no graph that large. Targets must not decrease from one
// Seek to the next: a cursor has passed what is behind it, and would answer
// "absent" for a graph it has skipped, so a smaller target is a caller's bug
// and panics.
func (c *Cursor) Seek(target int32) (ordinal int, count int32, ok bool) {
	if target < c.floor {
		panic("index: posting cursor sought backwards")
	}
	c.floor = target
	if c.ord < 0 || c.graph < target {
		c.skip(target)
		c.scan(target)
	}
	if c.Done() {
		return int(c.n), 0, false
	}
	return int(c.ord), c.count, c.graph == target
}

// skip jumps over the whole blocks between the cursor and target: to the
// last block whose base is no larger than target, every posting before which
// names a smaller graph.
func (c *Cursor) skip(target int32) {
	blk := (c.ord + 1) / postingBlock // the block of the posting scan would read
	lo, hi := blk+1, (c.n-1)/postingBlock+1
	if lo >= hi || c.skipBase(lo) > target {
		return // target is within this block, or past the list's last
	}
	for lo++; lo < hi; {
		if mid := (lo + hi) / 2; c.skipBase(mid) <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	to := lo - 1
	e := c.data[(to-1)*skipEntryBytes:]
	c.ord = to*postingBlock - 1
	c.graph = c.skipBase(to) - 1
	c.pos = int(binary.LittleEndian.Uint32(e[4:]))
}

func (c *Cursor) skipBase(block int32) int32 {
	return int32(binary.LittleEndian.Uint32(c.data[(block-1)*skipEntryBytes:]))
}

// scan decodes forward to the first posting whose graph is at least target —
// at least one posting — or off the end.
func (c *Cursor) scan(target int32) {
	d, pos, ord, graph := c.data, c.pos, c.ord, c.graph
	for ord+1 < c.n {
		gap := uint32(d[pos])
		if pos++; gap >= 0x80 {
			gap, pos = uvarintRest(d, pos, gap)
		}
		count := uint32(d[pos])
		if pos++; count >= 0x80 {
			count, pos = uvarintRest(d, pos, count)
		}
		ord++
		graph += int32(gap) + 1
		if graph >= target {
			c.pos, c.ord, c.graph, c.count = pos, ord, graph, int32(count)
			return
		}
	}
	c.ord = c.n
}

// uvarintRest finishes decoding a varint whose first byte, first, had its
// continuation bit set; pos is the second byte's.
func uvarintRest(d []byte, pos int, first uint32) (uint32, int) {
	v := first & 0x7f
	for shift := 7; ; shift += 7 {
		b := d[pos]
		pos++
		v |= uint32(b&0x7f) << shift
		if b < 0x80 {
			return v, pos
		}
	}
}
