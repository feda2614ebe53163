package cost

import "m2mjoin/internal/plan"

// Marginal returns the cost added by joining cand immediately after the
// connected prefix `set` (which must contain the driver and cand's
// parent, but not cand), under strategy s. The marginal depends only on
// the set — not on the order the set was joined in — which is the
// principle of optimality that Algorithm 1 relies on (and that Theorem
// 3.3 establishes for BVP with a fixed driver); every product over the
// set runs in ascending NodeID order, so equal sets give bit-equal
// marginals. Expansion costs are excluded; they are order-independent
// and added once at the end.
//
// For every strategy, summing Marginal over the steps of a full order
// (plus the order-independent phase-1/expansion terms) reproduces the
// corresponding Cost* function; this identity is checked in tests.
func (m *Model) Marginal(s Strategy, cand plan.NodeID, set plan.Set) float64 {
	switch s {
	case STD:
		return m.streamSTD(set) * m.ProbeCost(cand)
	case COM:
		return m.ProbesCOM(cand, set) * m.ProbeCost(cand)
	case BVPSTD:
		return m.marginalBVPSTD(cand, set)
	case BVPCOM:
		return m.marginalBVPCOM(cand, set)
	case SJSTD:
		return m.marginalSJSTD(cand, set)
	case SJCOM:
		return m.marginalSJCOM(cand)
	default:
		panic("cost: unknown strategy")
	}
}

// InitialFilterProbes returns the bitvector probes (in raw probe
// units, unweighted) charged against the driver before the first join:
// the bitvectors of all the driver's children are applied sequentially.
// The quantity is independent of the join order, so the exhaustive DP
// can ignore it; it is needed to reconstruct full BVP plan costs from
// marginals.
func (m *Model) InitialFilterProbes() float64 {
	eps := m.weights.Epsilon
	stream := 1.0
	probes := 0.0
	for _, c := range m.childrenByID(plan.Root, plan.SetOf(plan.Root)) {
		probes += stream
		stream *= m.tree.Stats(c).M + eps
	}
	return probes
}

// streamSTD returns the flat stream (tuples per driver tuple) after the
// joins of set: the product of m*fo over its non-root relations.
func (m *Model) streamSTD(set plan.Set) float64 {
	stream := 1.0
	for id := range set.Without(plan.Root).All() {
		st := m.tree.Stats(id)
		stream *= st.M * st.Fo
	}
	return stream
}

// childrenByID returns the not-yet-joined children of id in ascending
// NodeID order (the order AddChild keeps them in): the deterministic
// order in which their bitvectors are applied when id materializes.
func (m *Model) childrenByID(id plan.NodeID, joined plan.Set) []plan.NodeID {
	var out []plan.NodeID
	for _, c := range m.tree.Children(id) {
		if !joined.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// marginalBVPSTD: hash probes into cand plus the filter probes of the
// bitvectors applied when cand materializes. The stream entering cand's
// probe is the product of m*fo over joined relations and (m+eps) over
// the frontier (whose bitvectors have been applied but whose joins are
// pending) — a function of the set only.
func (m *Model) marginalBVPSTD(cand plan.NodeID, set plan.Set) float64 {
	eps := m.weights.Epsilon
	stream := m.streamSTD(set)
	for f := range m.tree.Frontier(set).All() {
		stream *= m.tree.Stats(f).M + eps
	}
	total := stream * m.ProbeCost(cand) // hash probes into cand

	// After the join: absorb cand's bitvector factor into its true
	// match probability and fan out, then apply cand's children's
	// bitvectors sequentially.
	st := m.tree.Stats(cand)
	stream *= st.M / (st.M + eps) * st.Fo
	for _, c := range m.childrenByID(cand, set) {
		total += m.weights.Filter * stream
		stream *= m.tree.Stats(c).M + eps
	}
	return total
}

// marginalBVPCOM starts from the (done, pending) state implied by the
// joined set: pending is exactly the frontier, since every relation's
// bitvector is applied the moment its parent materializes.
func (m *Model) marginalBVPCOM(cand plan.NodeID, set plan.Set) float64 {
	st := bvpState{done: set, pending: m.tree.Frontier(set)}
	total := m.levelCountBVP(m.tree.Parent(cand), st) * m.ProbeCost(cand)

	// Apply cand's children's bitvectors: cand becomes done, and each
	// child's filter sees cand's live rows before its own factor lands.
	st = bvpState{done: st.done.With(cand), pending: st.pending.Without(cand)}
	for _, c := range m.childrenByID(cand, set) {
		total += m.weights.Filter * m.levelCountBVP(cand, st)
		st.pending = st.pending.With(c)
	}
	return total
}

func (m *Model) marginalSJSTD(cand plan.NodeID, set plan.Set) float64 {
	stream := m.ReductionRatio(plan.Root)
	for id := range set.Without(plan.Root).All() {
		stream *= m.adjustedFo(id)
	}
	return stream * m.ProbeCost(cand)
}

func (m *Model) marginalSJCOM(cand plan.NodeID) float64 {
	probes := m.ReductionRatio(plan.Root)
	for _, a := range m.tree.PathToRoot(cand) {
		if a != plan.Root {
			probes *= m.adjustedFo(a)
		}
	}
	return probes * m.ProbeCost(cand)
}
