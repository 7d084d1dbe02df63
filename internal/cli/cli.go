// Package cli maps command-line flags onto a psi.Engine for psiquery and
// psiserve alike: one set of engine flags and defaults, one check of every
// value before a file is read, one engine-kind rule, and the one table that
// spells -mode as a dataset engine's index policy.
package cli

import (
	"flag"
	"fmt"
	"time"

	psi "github.com/psi-graph/psi"
)

// Flags are the flag values that configure the engine. Register binds the
// ones both commands share; psiserve binds its dataset-store flags (Shards,
// CompactEvery, Mutable, Snapshot) itself.
type Flags struct {
	Algos, Rewritings, Mode, Index string
	Workers                        int
	Timeout                        time.Duration

	Shards, CompactEvery int
	Mutable              bool
	Snapshot             string
}

// Register binds the shared engine flags on fs, with their defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Algos, "algos", "GQL,SPA", "stored-graph algorithms: GQL,SPA,QSI,VF2")
	fs.StringVar(&f.Rewritings, "rewritings", "Orig,DND", "raced rewritings: Orig,ILF,IND,DND,ILF+IND,ILF+DND")
	fs.StringVar(&f.Mode, "mode", "race", "launch policy: race|single|auto (single: the first attempt, or on a dataset the first rewriting)")
	fs.StringVar(&f.Index, "index", "race", "dataset indexes: ftv|grapes|ggsx, a comma list, or race (all)")
	fs.IntVar(&f.Workers, "workers", 1, "Grapes verification worker count")
	fs.DurationVar(&f.Timeout, "timeout", 10*time.Minute, "per-query kill cap (the engine budget)")
}

// Config is a checked flag set, with the flags the command line set.
type Config struct {
	f          Flags
	explicit   map[string]bool
	algos      []psi.Algorithm
	rewritings []psi.Rewriting
	mode       psi.Mode
	indexes    []string
}

// Parse checks every value of f, whichever engine kind will read it, so a
// misspelt flag fails, naming the flag, before any file is read. explicit
// names the flags set on the command line (flag.Visit).
func (f *Flags) Parse(explicit map[string]bool) (*Config, error) {
	c := &Config{f: *f, explicit: explicit}
	var err error
	if c.algos, err = psi.ParseAlgorithms(f.Algos); err != nil {
		return nil, fmt.Errorf("-algos: %w", err)
	}
	if c.rewritings, err = psi.ParseRewritings(f.Rewritings); err != nil {
		return nil, fmt.Errorf("-rewritings: %w", err)
	}
	if c.mode, err = psi.ParseMode(f.Mode); err != nil {
		return nil, fmt.Errorf("-mode: %w", err)
	}
	if c.indexes, err = psi.ParseIndexSpec(f.Index); err != nil {
		return nil, fmt.Errorf("-index: %w", err)
	}
	return c, nil
}

// datasetPolicy is the index policy that spells each -mode on a dataset,
// whose engine reads IndexPolicy, not Mode.
var datasetPolicy = map[psi.Mode]string{psi.ModeRace: psi.IndexRace, psi.ModeSingle: psi.IndexFixed, psi.ModeAuto: psi.IndexAuto}

// Options maps the flags onto the engine options for a dataset of the given
// size, and says whether a dataset engine reads them: for more than one
// graph or an explicit -index, else a stored-graph engine over the one graph
// takes -algos and -mode. A dataset engine takes the index and store flags,
// with -mode as its index policy. No graphs is a cold start from -snapshot,
// whose file carries the index names and the shard count: -index and
// -shards are forwarded only when explicit, and must then agree with it.
func (c *Config) Options(graphs int) (opts psi.EngineOptions, dataset bool) {
	opts = psi.EngineOptions{
		Rewritings:   c.rewritings,
		Timeout:      c.f.Timeout,
		IndexWorkers: c.f.Workers,
	}
	if graphs == 1 && !c.explicit["index"] {
		opts.Algorithms, opts.Mode = c.algos, c.mode
		return opts, false
	}
	opts.IndexPolicy = datasetPolicy[c.mode]
	opts.Mutable = c.f.Mutable
	opts.CompactEvery = c.f.CompactEvery
	if graphs == 0 {
		opts.Snapshot = c.f.Snapshot
	}
	if graphs > 0 || c.explicit["index"] {
		opts.Indexes = c.indexes
	}
	if graphs > 0 || c.explicit["shards"] {
		opts.Shards = c.f.Shards
	}
	return opts, true
}

// NewEngine builds the engine the flags describe over ds; a nil ds is a cold
// start from -snapshot.
func (c *Config) NewEngine(ds []*psi.Graph) (*psi.Engine, error) {
	opts, dataset := c.Options(len(ds))
	if dataset {
		return psi.NewDatasetEngine(ds, opts)
	}
	return psi.NewEngine(ds[0], opts)
}
