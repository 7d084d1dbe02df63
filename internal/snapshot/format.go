package snapshot

// The container format: a magic string, a format version, and a checksummed
// table of named sections, each an independently CRC-verified byte range.
//
//	offset 0  magic "PSISNAP1" (8 bytes)
//	offset 8  format version (uint32 LE)
//	offset 12 section count  (uint32 LE)
//	          per section: name length (uint32), name bytes,
//	                       payload offset (uint64), payload length (uint64),
//	                       payload CRC-32C (uint32)
//	          table CRC-32C (uint32) over bytes [8, table end)
//	          section payloads, in table order, back to back
//
// Every multi-byte integer is little-endian. CRCs use the Castagnoli
// polynomial (the hardware-accelerated one). The reader validates the magic,
// the version, the table CRC and every section CRC before handing out a
// single byte, so a corrupt file can never produce a partial engine; any
// flipped byte lands in the magic, the version, the table or exactly one
// payload, each of which is covered by a check.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	magic = "PSISNAP1"
	// FormatVersion is the on-disk format revision; readers reject files
	// written by a different revision rather than guessing at layouts.
	FormatVersion = 1

	// maxSections bounds the table a reader will parse — far above any real
	// snapshot, low enough that a corrupt count cannot drive allocation.
	maxSections = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writer accumulates named sections and assembles the container. Sections
// are laid out in add order.
type writer struct {
	names    []string
	payloads [][]byte
}

func (w *writer) add(name string, payload []byte) {
	w.names = append(w.names, name)
	w.payloads = append(w.payloads, payload)
}

// writeFile assembles the container and writes it atomically: the bytes go
// to a temp file in the destination directory, are synced, and are renamed
// over path — a crash mid-save leaves the previous snapshot intact.
func (w *writer) writeFile(path string) error {
	tableSize := 8 // version + count
	for _, name := range w.names {
		tableSize += 4 + len(name) + 8 + 8 + 4
	}
	tableSize += 4 // table CRC
	off := uint64(len(magic) + tableSize)

	var b buf
	b.raw([]byte(magic))
	b.u32(FormatVersion)
	b.u32(uint32(len(w.names)))
	for i, name := range w.names {
		b.u32(uint32(len(name)))
		b.raw([]byte(name))
		b.u64(off)
		b.u64(uint64(len(w.payloads[i])))
		b.u32(crc32.Checksum(w.payloads[i], castagnoli))
		off += uint64(len(w.payloads[i]))
	}
	b.u32(crc32.Checksum(b.b[8:], castagnoli))
	for _, p := range w.payloads {
		b.raw(p)
	}

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b.b); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// reader is a fully validated open container: every checksum has already
// been verified when open returns.
type reader struct {
	sections map[string][]byte
}

// open reads and validates a container file. Every failure mode — short
// file, wrong magic, wrong version, table damage, payload damage — returns
// an error mentioning what failed; checksum failures say "checksum".
func open(path string) (*reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if len(data) < len(magic)+12 {
		return nil, fmt.Errorf("snapshot: %s: file too short (%d bytes)", path, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: %s: bad magic (not a snapshot file?)", path)
	}
	d := &dec{b: data, off: len(magic)}
	if v := d.u32(); v != FormatVersion {
		return nil, fmt.Errorf("snapshot: %s: format version %d, this build reads %d", path, v, FormatVersion)
	}
	count := d.u32()
	if count > maxSections {
		return nil, fmt.Errorf("snapshot: %s: absurd section count %d (corrupt table?)", path, count)
	}
	type entry struct {
		name     string
		off, n   uint64
		checksum uint32
	}
	entries := make([]entry, 0, count)
	for i := uint32(0); i < count && d.err == nil; i++ {
		e := entry{name: d.str()}
		e.off, e.n, e.checksum = d.u64(), d.u64(), d.u32()
		entries = append(entries, e)
	}
	tableEnd := d.off
	wantTableCRC := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %s: truncated section table", path)
	}
	if got := crc32.Checksum(data[8:tableEnd], castagnoli); got != wantTableCRC {
		return nil, fmt.Errorf("snapshot: %s: section table checksum mismatch (got %08x, want %08x)", path, got, wantTableCRC)
	}
	r := &reader{sections: make(map[string][]byte, len(entries))}
	for _, e := range entries {
		if e.off > uint64(len(data)) || e.n > uint64(len(data))-e.off {
			return nil, fmt.Errorf("snapshot: %s: section %q [%d,+%d) outside file of %d bytes", path, e.name, e.off, e.n, len(data))
		}
		payload := data[e.off : e.off+e.n]
		if got := crc32.Checksum(payload, castagnoli); got != e.checksum {
			return nil, fmt.Errorf("snapshot: %s: section %q checksum mismatch (got %08x, want %08x)", path, e.name, got, e.checksum)
		}
		if _, dup := r.sections[e.name]; dup {
			return nil, fmt.Errorf("snapshot: %s: duplicate section %q", path, e.name)
		}
		r.sections[e.name] = payload
	}
	return r, nil
}

// section returns a named payload; missing sections are an error (the model
// layer knows exactly which sections a valid snapshot has).
func (r *reader) section(name string) ([]byte, error) {
	p, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing section %q", name)
	}
	return p, nil
}

// buf is a minimal little-endian byte assembler.
type buf struct{ b []byte }

func (b *buf) raw(p []byte) { b.b = append(b.b, p...) }
func (b *buf) u8(v byte)    { b.b = append(b.b, v) }
func (b *buf) u32(v uint32) { b.b = binary.LittleEndian.AppendUint32(b.b, v) }
func (b *buf) u64(v uint64) { b.b = binary.LittleEndian.AppendUint64(b.b, v) }
func (b *buf) str(s string) { b.u32(uint32(len(s))); b.raw([]byte(s)) }
func (b *buf) bool(v bool) {
	if v {
		b.u8(1)
	} else {
		b.u8(0)
	}
}
func (b *buf) bools(v []bool) {
	b.u64(uint64(len(v)))
	for _, x := range v {
		b.bool(x)
	}
}

// i32s and i64s append one length-prefixed array of 4- or 8-byte integers;
// the element type is the caller's own (tombstone counters, handles), so the
// codec is the one place a width changes.
func i32s[T ~int | ~int32](b *buf, v []T) {
	b.u64(uint64(len(v)))
	for _, x := range v {
		b.u32(uint32(x))
	}
}

func i64s[T ~int64](b *buf, v []T) {
	b.u64(uint64(len(v)))
	for _, x := range v {
		b.u64(uint64(x))
	}
}

// dec is the mirror decoder; the first out-of-bounds read latches err and
// every later read returns zero values, so call sites check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: truncated data at offset %d", d.off)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := d.u32()
	if d.err != nil || d.off+int(n) > len(d.b) || int(n) < 0 {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) bool() bool { return d.u8() != 0 }

// done reports a latched error or unconsumed trailing bytes — both decode
// failures for fixed-layout payloads.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snapshot: %d trailing bytes after decode", len(d.b)-d.off)
	}
	return nil
}

// arrayLen reads an array's element count and checks that exactly that many
// width-byte elements follow. The count is compared by division: a product
// could wrap around and pass a count far beyond the payload on to make.
func arrayLen(d *dec, width int, what string) (int, error) {
	n := d.u64()
	rest := len(d.b) - d.off
	if d.err == nil && (rest%width != 0 || uint64(rest/width) != n) {
		return 0, fmt.Errorf("snapshot: %s: %d bytes for %d %d-byte elements", what, rest, n, width)
	}
	return int(n), nil
}

// decInt32s decodes one length-prefixed int32 array section.
func decInt32s[T ~int | ~int32](payload []byte, what string) ([]T, error) {
	d := &dec{b: payload}
	n, err := arrayLen(d, 4, what)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(d.u32()))
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", what, err)
	}
	return out, nil
}

// decInt64s decodes one length-prefixed int64 array section.
func decInt64s[T ~int64](payload []byte, what string) ([]T, error) {
	d := &dec{b: payload}
	n, err := arrayLen(d, 8, what)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(d.u64())
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", what, err)
	}
	return out, nil
}

// decBools decodes one length-prefixed bool array section.
func decBools(payload []byte, what string) ([]bool, error) {
	d := &dec{b: payload}
	n, err := arrayLen(d, 1, what)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", what, err)
	}
	return out, nil
}
