// Package snapshot is the persistence layer of the engine: a versioned,
// checksummed binary format that serializes the dataset's CSR arrays
// (internal/graph), the flat feature/posting arrays of the one table per
// shard (internal/index), once per index name it serves — with locations
// under "grapes" — and the dataset store's slot,
// tombstone and epoch state (internal/live). A loaded snapshot reconstructs an engine
// that answers every query byte-identically to the freshly built one, with
// none of the path enumeration that dominates build time — which is what
// makes `psiserve -snapshot` cold starts near-instant.
//
// # Container layout
//
// A snapshot file is a magic string ("PSISNAP1"), a format version, and a
// table of named sections, each a (name, offset, length, CRC-32C) entry;
// the table itself carries its own CRC. See format.go for the exact byte
// layout. The reader validates the magic, the version, the table checksum
// and every section checksum before constructing anything, so a corrupt
// file fails closed with a checksum error — never a partial engine. The
// model layer then re-validates shape (array lengths must agree across
// sections) and structure (every graph passes graph.FromCSR's full
// invariant check; index.Restore rejects features, postings or locations
// that are out of canonical order or out of bounds, and posting counts below
// 1) before any index is built from them.
//
// # The mmap-forward contract
//
// Every array in the file is a single contiguous length-prefixed section:
// one flat run of fixed-width little-endian elements, preceded by a uint64
// element count, located by one section-table entry. Nothing is interleaved,
// chunked, or compressed. This is deliberate: a follow-up can replace the
// read-everything loader with mmap plus per-section slices — the offsets in
// the section table already point at page-in-order runs (dataset CSR arrays
// first, then each index's features in shard order), matching the
// sequential access pattern the I/O-complexity analysis of enumeration on
// massive graphs calls for. Under that mode only the section table and meta
// need eager reading; array sections page in lazily as shards are touched,
// which is the precondition for datasets larger than RAM. This package
// designs for that layout but does not implement paging.
//
// # What is persisted per layer
//
//   - Dataset: per-graph names and vertex counts, plus the concatenation of
//     every graph's CSR arrays (labels, offsets, neighbors, edge labels).
//     The derived label index is rebuilt deterministically on load.
//   - Indexes: per (name, shard), the features in canonical lexicographic
//     order — per-feature label-sequence lengths, flat labels, per-feature
//     posting counts, flat graph IDs / occurrence counts / location
//     lengths / locations. Every name's section is written from the shard's
//     one table, and the table is restored from one of them
//     (index.RestorePath): the "grapes" section when listed, else the first;
//     VF2 keeps no state beyond the stored graph it verifies against.
//     Locations are written as ascending vertex IDs whatever
//     form the index holds them in (ftv.LocSets: a bitset row or an ID list
//     per set): the export expands every set and the restore packs it again
//     by the same rule, so the file does not depend on the in-memory layout,
//     a loaded engine re-saves the bytes it was loaded from, and format
//     version 1 still covers it. The price is the file's size — IDs are the
//     larger form wherever the index chose rows. The same goes for postings:
//     the file holds fixed-width (graph, count) arrays, the index packs them
//     into delta-varint lists on load. Each undirected path is written once,
//     under its oriented spelling (ftv.Oriented). A version-1 file written
//     before that holds every path under both spellings; index.Restore keeps
//     the oriented one when the other is its exact mirror and refuses the
//     file when it is not, so such a file loads, answers as it did, and
//     re-saves at about half its size rather than byte for byte.
//   - Store state (mutable engines only): the slot-space liveness bitmap,
//     per-slot public handles, per-shard tombstone counters, and the epoch
//     and next-handle counters, so mutation history, handle identity and
//     cache-keying epochs all survive a restart.
//
// Every dataset engine serves from an internal/live store, and a Model is
// that store's live.State. A static engine's store never mutates, so its
// graph array is dense and the rest of its state follows from it: the file
// leaves that state out and Load fills it back in (see Model). A snapshot
// still loads only in the mode that wrote it.
package snapshot
