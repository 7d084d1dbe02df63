package psi

// Engine configuration: the planning modes, EngineOptions, the index
// policies, and the parsers that turn command-line flag values into them.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
)

// Mode selects the Engine's planning policy.
type Mode string

const (
	// ModeRace races the full attempt portfolio for every query — the
	// paper's Ψ-framework proper.
	ModeRace Mode = "race"
	// ModeSingle always plans the portfolio's first attempt alone — the
	// fixed single-algorithm baseline the paper races against.
	ModeSingle Mode = "single"
	// ModeAuto plans with the traffic-aware bandit policy: per query class
	// it runs the learned best attempt solo and escalates to a full race
	// on unfamiliar classes, on staleness, or after a budget-killed solo.
	ModeAuto Mode = "auto"
)

// ParseMode converts a -mode flag value into a Mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeRace, ModeSingle, ModeAuto:
		return Mode(s), nil
	case "":
		return ModeRace, nil
	}
	return "", fmt.Errorf("psi: unknown mode %q (want race, single or auto)", s)
}

// EngineOptions configures NewEngine and NewDatasetEngine. The zero value
// is a sensible default: a race of GraphQL and sPath over Orig and DND,
// no deadline, the shared CPU-sized pool.
type EngineOptions struct {
	// Algorithms are the portfolio's matching algorithms (NFV engines);
	// empty means {GraphQL, SPath}.
	Algorithms []Algorithm
	// Rewritings are the raced query rewritings; empty means {Orig, DND}.
	Rewritings []Rewriting
	// Mode is the planning policy; empty means ModeRace.
	Mode Mode
	// Timeout is the per-query deadline enforced by Execute through
	// metrics.Budget — the paper's kill cap. 0 disables the deadline.
	Timeout time.Duration
	// Workers sizes a dedicated execution pool owned (and closed) by the
	// Engine; 0 shares the process-wide CPU-sized pool.
	Workers int

	// SoloBudget caps an auto-policy arm's solo run before it falls back to
	// a full race; 0 means 50ms.
	SoloBudget time.Duration

	// AutoMinSamples is how many successful observations a query class
	// needs before the auto policy (ModeAuto / IndexAuto) may run it solo;
	// 0 means 3.
	AutoMinSamples int
	// AutoRaceEvery forces every Nth auto-policy decision of a class to a
	// full re-race so the learned statistics cannot go stale; 0 means 16,
	// negative disables staleness races.
	AutoRaceEvery int

	// Indexes is the filtering-index portfolio of dataset engines: each
	// entry names a registered index kind ("ftv", the flat path index;
	// "grapes"; "ggsx"). With two or more entries the engine builds every
	// index and, under the race policy, runs them against each other per
	// query — the paper's parallel use of alternative algorithms applied
	// to the filtering stage. Empty means {"grapes"}.
	Indexes []string
	// IndexPolicy says how a dataset engine uses its portfolio:
	// IndexRace (default with ≥ 2 indexes) races every index per query;
	// IndexFixed (default with 1) always consults the first; IndexAuto
	// learns per query class which index to run solo and races only when
	// uncertain (unfamiliar class, staleness, or a budget-killed solo).
	IndexPolicy string
	// IndexWorkers is the Grapes verification worker count (the paper's
	// Grapes/1 vs Grapes/4); 0 means 1. Above 1, Grapes fans a candidate's
	// components out on the engine's pool, as wide as its idle workers plus
	// the verifying goroutine. Other kinds ignore it.
	IndexWorkers int
	// Shards partitions the dataset of dataset engines into K round-robin
	// shards, giving every index in the portfolio one sub-index per shard
	// behind an ascending-ID ordered merge; answers are byte-identical to
	// the monolithic engine at any K. <= 1 (and NFV engines) stay
	// monolithic. The count is clamped to the dataset size.
	Shards int
	// Mutable opens a dataset engine's mutation API — every dataset engine
	// serves from the same store, a static one just never mutates it:
	// AddGraph, RemoveGraph and ReplaceGraph become available, every
	// mutation bumps the dataset epoch and installs a fresh index snapshot,
	// and in-flight queries keep reading the snapshot they started on
	// (snapshot isolation — answers stay byte-identical to a from-scratch
	// build of whichever epoch they executed against). Unlike static engines
	// the shard count is not clamped to the initial dataset size, since the
	// dataset grows.
	Mutable bool
	// CompactEvery is the per-shard tombstone threshold of a mutable
	// engine: after this many deletions a shard sheds its dead graphs'
	// features with a shard-local rebuild. 0 means live.DefaultCompactEvery
	// (8); ignored for static engines.
	CompactEvery int
	// Snapshot, when set, constructs the dataset engine by loading a
	// persisted snapshot (written by SaveSnapshot) instead of extracting
	// features from a dataset: pass a nil dataset to NewDatasetEngine. The
	// snapshot dictates the dataset, index portfolio, shard count and
	// (for mutable engines) the full mutation state; Indexes, Shards
	// and Mutable must be left zero or agree with the snapshot — a
	// mismatch is an error, never a silent rebuild. Runtime knobs
	// (IndexPolicy, IndexWorkers, CompactEvery, Workers, mode and budget
	// options) apply as usual.
	Snapshot string
}

// Index policies for EngineOptions.IndexPolicy and Plan.IndexPolicy.
const (
	// IndexRace races every configured filtering index per query; the
	// first index to emit a verified candidate wins and the rest are
	// cancelled.
	IndexRace = "race"
	// IndexFixed always consults the portfolio's first index.
	IndexFixed = "fixed"
	// IndexAuto runs the learned best index solo per query class, racing
	// the full portfolio only when uncertain. Answers are identical to
	// IndexRace in every case: all indexes are exact, so any arm computes
	// the same ascending graph IDs.
	IndexAuto = "auto"
)

// ParseIndexSpec converts an -index flag value into an index-kind list:
// a registered kind name ("ftv", "grapes", "ggsx"), a comma-separated
// combination, or "race" for the full portfolio of all registered kinds.
// Unregistered kinds and duplicate entries are rejected here, before any
// dataset is loaded or index built, so a misspelt flag fails in
// microseconds rather than after a multi-minute extraction.
func ParseIndexSpec(s string) ([]string, error) {
	switch s {
	case "":
		return nil, nil
	case IndexRace:
		return index.Kinds(), nil
	}
	var kinds []string
	seen := map[string]bool{}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if seen[k] {
			return nil, fmt.Errorf("psi: duplicate index kind %q in spec %q", k, s)
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("psi: empty index spec %q", s)
	}
	registered := index.Kinds()
	for _, k := range kinds {
		if !slices.Contains(registered, k) {
			return nil, fmt.Errorf("psi: unknown index kind %q (registered: %v)", k, registered)
		}
	}
	return kinds, nil
}

// ParseAlgorithms converts an -algos flag value — comma-separated algorithm
// names (GQL, SPA, QSI, VF2), whitespace around each ignored — into the
// NFV portfolio's algorithm list.
func ParseAlgorithms(s string) ([]Algorithm, error) {
	var algos []Algorithm
	for _, name := range strings.Split(s, ",") {
		switch a := Algorithm(strings.TrimSpace(name)); a {
		case GraphQL, SPath, QuickSI, VF2:
			algos = append(algos, a)
		default:
			return nil, fmt.Errorf("psi: unknown algorithm %q (want GQL, SPA, QSI or VF2)", name)
		}
	}
	return algos, nil
}

// ParseRewritings converts a -rewritings flag value — comma-separated
// rewriting names (Orig, ILF, IND, DND, ILF+IND, ILF+DND), whitespace around
// each ignored, "Or" accepted as the paper's figure shorthand for Orig — into
// the raced rewriting list.
func ParseRewritings(s string) ([]Rewriting, error) {
	var kinds []Rewriting
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "Or" {
			name = "Orig"
		}
		k, err := rewrite.ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}
