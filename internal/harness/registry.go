package harness

import (
	"fmt"
	"io"
	"sort"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the experiment identifier used by cmd/psibench (e.g. "fig10",
	// "table3").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Run executes the experiment against the environment and writes its
	// tables to w.
	Run func(e *Env, w io.Writer) error
}

var registry = map[string]Experiment{}

// register adds an experiment at package init time.
func register(exp Experiment) {
	if _, dup := registry[exp.ID]; dup {
		panic("harness: duplicate experiment " + exp.ID)
	}
	registry[exp.ID] = exp
}

// All returns every registered experiment sorted by ID (figures first, then
// tables, each numerically).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, exp := range registry {
		out = append(out, exp)
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders "fig1" < "fig2" < ... < "table1" < "table10" numerically.
func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	return na < nb
}

func splitID(id string) (prefix string, n int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	prefix = id[:i]
	fmt.Sscanf(id[i:], "%d", &n)
	return prefix, n
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	exp, ok := registry[id]
	return exp, ok
}

// Run executes the experiments with the given IDs (all when ids is empty)
// against a fresh environment for cfg, writing output to w.
func Run(cfg Config, w io.Writer, ids ...string) error {
	env := NewEnv(cfg)
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		for _, id := range ids {
			exp, ok := Lookup(id)
			if !ok {
				return fmt.Errorf("harness: unknown experiment %q", id)
			}
			exps = append(exps, exp)
		}
	}
	for _, exp := range exps {
		fmt.Fprintf(w, "=== %s: %s (scale=%s cap=%v) ===\n", exp.ID, exp.Title, cfg.Scale, cfg.Cap)
		if err := exp.Run(env, w); err != nil {
			return fmt.Errorf("harness: experiment %s: %w", exp.ID, err)
		}
	}
	return nil
}
