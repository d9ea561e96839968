package analysis

// A generic forward dataflow solver over the CFG: the engine under
// leaklint's resource tracking and available for any pass that needs
// "what is true at this program point on every/any path" answers.
//
// The framework is the textbook worklist algorithm. A flowProblem supplies
// the lattice (Join/Equal), the entry fact, and a per-node transfer
// function; Solve iterates to the fixpoint. Facts are opaque to the
// solver; problems choose their own representation (typically a small map
// treated as immutable — Transfer returns a fresh fact when it changes
// anything).

import "go/ast"

// fact is one dataflow fact. The solver never inspects it.
type fact any

// flowProblem defines one forward dataflow analysis.
type flowProblem interface {
	// Entry is the fact at function entry.
	Entry() fact
	// Transfer applies one straight-line node to the incoming fact. It
	// must not mutate the incoming fact.
	Transfer(n ast.Node, f fact) fact
	// Join merges facts at a control-flow merge point. It must not mutate
	// its arguments. Joining with nil (an unvisited predecessor) must
	// return the other fact unchanged — the solver guarantees nil means
	// "no information yet", not "empty".
	Join(a, b fact) fact
	// Equal reports whether two facts carry the same information
	// (fixpoint detection).
	Equal(a, b fact) bool
}

// solveForward runs the worklist algorithm and returns the fact at the
// *end* of each block (after its last node). The fact flowing into
// cfg.Exit — the join over its predecessors' out-facts — describes every
// return/fall-off exit path; deferred calls (cfg.Defers) are NOT applied
// by the solver, since their semantics are problem-specific.
func solveForward(cfg *cfg, p flowProblem) map[*cfgBlock]fact {
	out := make(map[*cfgBlock]fact, len(cfg.blocks))
	in := make(map[*cfgBlock]fact, len(cfg.blocks))

	// Seed: entry gets the boundary fact; everything else starts nil
	// ("unvisited"). Worklist starts with every block so detached blocks
	// still stabilize (with nil facts).
	work := make([]*cfgBlock, 0, len(cfg.blocks))
	inWork := make(map[*cfgBlock]bool, len(cfg.blocks))
	push := func(b *cfgBlock) {
		if !inWork[b] {
			inWork[b] = true
			work = append(work, b)
		}
	}
	push(cfg.entry)

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		var inFact fact
		if b == cfg.entry {
			inFact = p.Entry()
		}
		for _, pred := range b.preds {
			if o, ok := out[pred]; ok {
				if inFact == nil {
					inFact = o
				} else {
					inFact = p.Join(inFact, o)
				}
			}
		}
		if inFact == nil && b != cfg.entry {
			// No predecessor has produced a fact yet; revisit later via
			// their pushes.
			in[b] = nil
			continue
		}
		in[b] = inFact

		f := inFact
		for _, n := range b.nodes {
			f = p.Transfer(n, f)
		}
		if old, ok := out[b]; !ok || !p.Equal(old, f) {
			out[b] = f
			for _, s := range b.succs {
				push(s)
			}
		}
	}
	return out
}

// exitFact joins the out-facts of the exit block's predecessors: the
// merged state over all exit paths. Returns nil when the exit is
// unreachable (the body provably loops forever).
func exitFact(cfg *cfg, p flowProblem, out map[*cfgBlock]fact) fact {
	var f fact
	for _, pred := range cfg.exit.preds {
		o, ok := out[pred]
		if !ok {
			continue
		}
		if f == nil {
			f = o
		} else {
			f = p.Join(f, o)
		}
	}
	return f
}
