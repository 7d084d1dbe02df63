package psi

// Engine configuration: the planning modes, EngineOptions, the index
// policies, the auto policy's fixed knobs, the one index-name check, and the
// parsers that turn command-line flag values into them.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/psi-graph/psi/internal/index"
	"github.com/psi-graph/psi/internal/rewrite"
)

// Mode names a launch policy: what a stored-graph engine's EngineOptions.Mode
// selects, and what Engine.Mode reports on either engine kind.
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

// ParseMode converts a -mode flag value into a Mode; empty is ModeRace.
func ParseMode(s string) (Mode, error) {
	if m := cmp.Or(Mode(s), ModeRace); slices.Contains(launchModes[:], m) {
		return m, nil
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
	// Mode is a stored-graph engine's launch policy; empty means ModeRace. A
	// dataset engine rejects it: it reads IndexPolicy. With one attempt the
	// engine runs ModeSingle whatever Mode says.
	Mode Mode
	// Timeout is the per-query deadline enforced by Execute through
	// metrics.Budget — the paper's kill cap. 0 disables the deadline.
	Timeout time.Duration
	// Workers sizes a dedicated execution pool owned (and closed) by the
	// Engine; 0 shares the process-wide CPU-sized pool. Set-up runs on that
	// pool as queries do: a stored graph's matchers build side by side, with
	// sPath's signatures fanned out, and a dataset's features are extracted
	// graph by graph across it.
	Workers int

	// Indexes names the index methods a dataset engine serves ("ftv", the
	// flat path index; "grapes"; "ggsx"). The engine builds one table per
	// shard whatever the names — with location sets when "grapes" is listed
	// — and verifies with the one verifier that table carries: Grapes'
	// located one when "grapes" is listed, else the whole-graph one, named
	// after the first name. Its arms are that verifier under each of
	// Rewritings ("Grapes/1-Orig", "Grapes/1-DND"), raced on each candidate
	// the filter emits — the paper's Ψ over an FTV method, in verification.
	// Empty means {"grapes"}.
	Indexes []string
	// IndexPolicy is a dataset engine's launch policy over its arms:
	// IndexRace (default) races every rewriting on every candidate;
	// IndexFixed runs only the first rewriting, the plain FTV method;
	// IndexAuto learns per query class which rewriting to run alone and
	// races only when uncertain (unfamiliar class, staleness, or a
	// budget-killed solo). A stored-graph engine rejects it: it reads Mode.
	// With one rewriting the policy is IndexFixed.
	IndexPolicy string
	// IndexWorkers is the Grapes verification worker count (the paper's
	// Grapes/1 vs Grapes/4); 0 means 1. Above 1, Grapes fans a candidate's
	// components out on the engine's pool, as wide as its idle workers plus
	// the verifying goroutine. The whole-graph verifier ignores it.
	IndexWorkers int
	// Shards partitions the dataset of dataset engines into K round-robin
	// shards, one table each behind an ascending-ID ordered merge; answers are byte-identical to
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
	// snapshot dictates the dataset, index names, shard count and
	// (for mutable engines) the full mutation state; Indexes, Shards
	// and Mutable must be left zero or agree with the snapshot — a
	// mismatch is an error, never a silent rebuild. Runtime knobs
	// (IndexPolicy, IndexWorkers, CompactEvery, Workers, Rewritings and
	// Timeout) apply as usual; Mode is rejected, as on every dataset engine.
	Snapshot string
}

// Index policies for EngineOptions.IndexPolicy; Engine.Mode reports them as
// ModeRace, ModeSingle and ModeAuto.
const (
	// IndexRace races the verifier under every rewriting on every
	// candidate; the first to decide a candidate wins it and the rest are
	// cancelled.
	IndexRace = "race"
	// IndexFixed runs the verifier under the first rewriting alone.
	IndexFixed = "fixed"
	// IndexAuto runs the learned best rewriting solo per query class,
	// racing them all only when uncertain. Answers are identical to
	// IndexRace in every case: every rewriting is exact.
	IndexAuto = "auto"
)

// The auto policy's fixed knobs (ModeAuto / IndexAuto).
const (
	// soloBudget caps a learned arm's solo run before it falls back to a
	// full race.
	soloBudget = 50 * time.Millisecond
	// autoMinSamples is how many successful observations a query class
	// needs before it may run solo.
	autoMinSamples = 3
	// autoRaceEvery sends every autoRaceEvery-th decision of a class to a
	// full race, so the learned statistics cannot go stale.
	autoRaceEvery = 16
)

// ParseIndexSpec converts an -index flag value into a list of index names:
// one name ("ftv", "grapes", "ggsx"), a comma-separated combination, or
// "race" for all three. Unknown names and duplicate entries are rejected
// here, before any dataset is loaded or index built, so a misspelt flag
// fails in microseconds rather than after a multi-minute extraction.
func ParseIndexSpec(s string) ([]string, error) {
	switch s {
	case "":
		return nil, nil
	case IndexRace:
		return index.Kinds(), nil
	}
	var kinds []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("psi: empty index spec %q", s)
	}
	if err := checkIndexNames(kinds); err != nil {
		return nil, err
	}
	return kinds, nil
}

// checkIndexNames is the one check of a list of index names, for the -index
// flag and EngineOptions.Indexes alike: every name registered, none listed
// twice. A duplicate is rejected rather than dropped, as a caller's slip;
// "ftv" and "ggsx", two names for one verifier, may both be listed.
func checkIndexNames(kinds []string) error {
	registered := index.Kinds()
	for i, k := range kinds {
		if slices.Contains(kinds[:i], k) {
			return fmt.Errorf("psi: duplicate index kind %q in %v", k, kinds)
		}
		if !slices.Contains(registered, k) {
			return fmt.Errorf("psi: unknown index kind %q (registered: %v)", k, registered)
		}
	}
	return nil
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
