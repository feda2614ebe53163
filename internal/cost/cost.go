// Package cost implements the cost model of Kalumin & Deshpande
// (ICDE 2025, Section 3): the expected number of probes a left-deep
// pipelined plan performs over an acyclic join tree.
//
// The paper's six strategies are two axes, and so is the model. The
// output axis picks one of two formulas for the rows of a relation that
// are alive after a joined prefix: the flat stream of Section 2.1
// (every materialized tuple probes every later operator) or the
// factorized level count of Section 3.3, Equation (1) (a relation is
// probed once per surviving row of its parent). The reduction axis only
// picks the statistics those formulas see — a view:
//
//	reduction  stats             scale            pass         initial term
//	none       tree's (m, fo)    1                —            0
//	BVP        tree's (m, fo)    1                min(m+ε, 1)  the filters of the driver's
//	           (§3.5)                             (§3.5)       children, on the driver (§3.5)
//	SJ         (1, fo′) of       the driver's     —            the phase-1 semi-join
//	           Theorem 3.4       reduction ratio               probes (§3.6), paid
//	           (§3.6)            (§3.6)                        once per snapshot
//
// Joining a relation costs one hash probe per alive row of its parent;
// where the view has pass factors, the relation's rows then probe the
// pushed-down filter of each of its children in turn. Both terms depend
// on the joined set alone (Theorem 3.3), and the cost of an order is the
// view's initial term plus the sum of its joins' marginals plus, for a
// factorized strategy asked for flat output, the final expansion.
//
// All costs are expressed per driver tuple; multiply by the driver
// cardinality N for totals. Probe kinds are weighted: a hash-table
// probe costs 1, a bitvector or semi-join probe costs Weights.Filter
// (paper: 1/2), and expanding one output tuple costs Weights.Expand
// (paper: 1/14).
package cost

import (
	"strings"

	"m2mjoin/internal/plan"
)

// Strategy identifies one of the six execution approaches compared in
// the paper (Section 4.1): a Reduction crossed with flat or factorized
// intermediates.
type Strategy int

const (
	// STD fully materializes flat intermediate tuples after each join.
	STD Strategy = iota
	// COM keeps intermediates factorized, avoiding redundant probes.
	COM
	// BVPSTD is STD plus bitvector-based early pruning.
	BVPSTD
	// BVPCOM is COM plus bitvector-based early pruning.
	BVPCOM
	// SJSTD is STD preceded by a semi-join full-reduction pass.
	SJSTD
	// SJCOM is COM preceded by a semi-join full-reduction pass.
	SJCOM
)

// Reduction is how a strategy thins its input before and between the
// joins.
type Reduction int

const (
	// Unreduced strategies probe with every intermediate row.
	Unreduced Reduction = iota
	// Bitvector strategies push a filter per join down to its parent's
	// materialization point (BVP, Section 3.5).
	Bitvector
	// SemiJoin strategies fully reduce every relation before joining
	// (SJ, Section 3.6).
	SemiJoin
)

// Reduction returns the strategy's reduction axis.
func (s Strategy) Reduction() Reduction { return Reduction(s >> 1) }

// Factorized reports whether the strategy keeps intermediates
// factorized (the COM variants) rather than flat (the STD variants).
func (s Strategy) Factorized() bool { return s&1 == 1 }

var strategyNames = [...]string{
	STD:    "STD",
	COM:    "COM",
	BVPSTD: "BVP+STD",
	BVPCOM: "BVP+COM",
	SJSTD:  "SJ+STD",
	SJCOM:  "SJ+COM",
}

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return "unknown"
	}
	return strategyNames[s]
}

// AllStrategies lists the six strategies in presentation order.
var AllStrategies = []Strategy{STD, COM, BVPSTD, BVPCOM, SJSTD, SJCOM}

// ParseStrategy resolves a strategy name as produced by String,
// case-insensitively and accepting '-' or '_' for '+' (so "bvp-std"
// and "SJ_COM" work on a command line or in a JSON request).
func ParseStrategy(name string) (Strategy, bool) {
	canon := func(s string) string {
		b := []byte(strings.ToUpper(s))
		for i, c := range b {
			if c == '-' || c == '_' {
				b[i] = '+'
			}
		}
		return string(b)
	}
	want := canon(name)
	for s, n := range strategyNames {
		if canon(n) == want {
			return Strategy(s), true
		}
	}
	return 0, false
}

// Weights holds the relative costs of the cheaper probe kinds, as
// micro-benchmarked in Section 5.4 of the paper, plus the bitvector
// false-positive probability.
type Weights struct {
	// Filter is the cost of one bitvector or semi-join probe relative
	// to a hash-table probe. The paper measures 1/2.
	Filter float64
	// Expand is the cost of generating one flat output tuple relative
	// to a hash-table probe. The paper measures 1/14.
	Expand float64
	// Epsilon is the bitvector false-positive probability used by the
	// BVP cost formulas (Section 3.5).
	Epsilon float64
}

// DefaultWeights are the weight parameters used throughout the paper's
// evaluation.
func DefaultWeights() Weights {
	return Weights{Filter: 0.5, Expand: 1.0 / 14.0, Epsilon: 0.01}
}

// Model estimates plan costs over a join tree. Construct with New.
type Model struct {
	tree    *plan.Tree
	weights Weights
	// probeCosts holds the per-operator probe cost c_i (Section 2.1's
	// generalized join operator: a hash lookup, an index probe, or an
	// external API/UDF call). Nil means unit costs everywhere.
	probeCosts map[plan.NodeID]float64
	// ratio and adjusted are phase 1 of the full reduction, by NodeID:
	// the fraction of each relation that survives it and the Theorem
	// 3.4 statistics of the edge into the reduced relation.
	ratio    []float64
	adjusted []plan.EdgeStats
	views    [3]view // by Reduction
}

// New returns a cost model for the given tree and weights, with unit
// probe costs (every probe costs 1, the hash-join default).
func New(t *plan.Tree, w Weights) *Model {
	return NewWithProbeCosts(t, w, nil)
}

// NewWithProbeCosts returns a cost model with heterogeneous per-
// operator probe costs: probing relation id costs costs[id] units
// (relations absent from the map cost 1). This models the paper's
// expensive-probe scenarios — index lookups, web-service calls, or
// expensive UDFs — where minimizing weighted probes is the key metric.
func NewWithProbeCosts(t *plan.Tree, w Weights, costs map[plan.NodeID]float64) *Model {
	m := &Model{tree: t, weights: w}
	if len(costs) > 0 {
		m.probeCosts = make(map[plan.NodeID]float64, len(costs))
		for id, c := range costs {
			if c <= 0 {
				panic("cost: probe costs must be positive")
			}
			m.probeCosts[id] = c
		}
	}
	m.buildViews()
	return m
}

// ProbeCost returns c_id, the cost of one probe into relation id.
func (m *Model) ProbeCost(id plan.NodeID) float64 {
	if c, ok := m.probeCosts[id]; ok {
		return c
	}
	return 1
}

// Tree returns the join tree the model was built for.
func (m *Model) Tree() *plan.Tree { return m.tree }

// Weights returns the probe weights in use.
func (m *Model) Weights() Weights { return m.weights }

// SurvivalTree computes m_T, the probability that a tuple of the
// subtree root survives all join operators in the connected set `in`
// (Section 3.3). The set must contain root; descendants of root not in
// `in` are ignored. The recursion is
//
//	m_T = m_Tr * (1 - (1 - prod_i m_Ti)^fo_Tr)
//
// where T1..Tk are the included children subtrees of the root Tr, and
// m_root = fo_root = 1 for the driver.
func (m *Model) SurvivalTree(root plan.NodeID, in plan.Set) float64 {
	if !in.Has(root) {
		panic("cost: SurvivalTree: set does not contain its root")
	}
	return m.views[Unreduced].survival(root, in, 0)
}

// ProbesCOM returns the expected number of probes (per driver tuple)
// into `next` when the connected prefix `done` (which must include the
// driver and next's parent, but not next) has already been joined and
// redundant probes are avoided through a factorized representation.
// This is Equation (1) of the paper:
//
//	probes = prod_{ancestors a of next} m_a * fo_a
//	       * prod_{joined subtrees T hanging off those ancestors} m_T
//
// Expansion happens only along the root-to-next path; side branches
// contribute only their survival probability.
func (m *Model) ProbesCOM(next plan.NodeID, done plan.Set) float64 {
	return m.views[Unreduced].levelCount(m.tree.Parent(next), done, 0)
}

// PlanCost is the cost breakdown of one left-deep plan, expressed per
// driver tuple (multiply by the driver cardinality for totals). Every
// term is paid per query except Phase1Probes, which an SJ plan pays
// once per snapshot: its reduction depends on the data and the
// selections only, so a caller that keeps it resident has paid it.
type PlanCost struct {
	Strategy Strategy
	// HashProbes is the expected hash-probe cost: the probe count with
	// each probe weighted by its operator's ProbeCost. Under the
	// default unit costs this equals the expected number of probes.
	HashProbes float64
	// FilterProbes is the expected number of bitvector or semi-join
	// probes (weighted by Weights.Filter in Total), Phase1Probes
	// included.
	FilterProbes float64
	// Phase1Probes is the part of FilterProbes an SJ plan spends in
	// phase 1 (Model.Phase1Probes); 0 for the other strategies.
	Phase1Probes float64
	// ExpandedTuples is the expected number of flat output tuples
	// produced by the final expansion (weighted by Weights.Expand).
	// Zero when the output stays factorized or when the strategy is a
	// STD variant (STD materializes as it goes; that work is already
	// reflected in its larger probe counts).
	ExpandedTuples float64
	// Total is the weighted scalar cost.
	Total float64
}

// OutputTuples returns the expected number of flat result tuples per
// driver tuple: the product of m*fo over all joins.
func (m *Model) OutputTuples() float64 {
	out := 1.0
	for _, id := range m.tree.NonRoot() {
		st := m.tree.Stats(id)
		out *= st.M * st.Fo
	}
	return out
}

// RelCard returns the cardinality of relation id relative to the
// driver cardinality: prod over the path root->id of m*fo. Under the
// uniformity assumptions of Section 3 this is |R_id| / N, and it is
// exactly how the synthetic workload generator sizes relations.
func (m *Model) RelCard(id plan.NodeID) float64 {
	card := 1.0
	for id != plan.Root {
		st := m.tree.Stats(id)
		card *= st.M * st.Fo
		id = m.tree.Parent(id)
	}
	return card
}

// view returns the statistics strategy s costs its joins against.
func (m *Model) view(s Strategy) *view {
	if s < 0 || int(s) >= len(strategyNames) {
		panic("cost: unknown strategy")
	}
	return &m.views[s.Reduction()]
}

// marginal returns the hash-probe cost and the filter probes added by
// joining cand immediately after the connected prefix set: the alive
// rows of cand's parent probe cand, and where the view pushes filters
// down, cand's joined rows then probe the filter of each of cand's
// children in turn. A filter is pending — applied, its join not yet
// run — exactly while its relation is on the frontier, because it was
// pushed down the moment the relation's parent materialized.
func (m *Model) marginal(s Strategy, cand plan.NodeID, set plan.Set) (hash, filter float64) {
	v, t := m.view(s), m.tree
	var pending plan.Set
	if v.pass != nil {
		pending = t.Frontier(set)
	}
	hash = v.rows(s.Factorized(), t.Parent(cand), set, pending) * m.ProbeCost(cand)
	if v.pass == nil || t.IsLeaf(cand) {
		return hash, 0
	}
	joined := v.rows(s.Factorized(), cand, set.With(cand), pending.Without(cand))
	return hash, v.pushDown(cand, joined)
}

// Marginal returns the weighted cost added by joining cand immediately
// after the connected prefix `set` (which must contain the driver and
// cand's parent, but not cand), under strategy s. The marginal depends
// only on the set — not on the order the set was joined in — which is
// the principle of optimality that Algorithm 1 relies on (and that
// Theorem 3.3 establishes for BVP with a fixed driver); every product
// over the set runs in ascending NodeID order, so equal sets give
// bit-equal marginals. The order-independent terms (the view's initial
// term, the final expansion) are excluded.
func (m *Model) Marginal(s Strategy, cand plan.NodeID, set plan.Set) float64 {
	hash, filter := m.marginal(s, cand, set)
	return hash + m.weights.Filter*filter
}

// Cost returns the cost of order o under strategy s: the view's
// initial term, the marginal of every join of o, and, when flatOutput
// asks a factorized strategy for flat tuples, the final expansion.
func (m *Model) Cost(s Strategy, o plan.Order, flatOutput bool) PlanCost {
	pc := PlanCost{Strategy: s, FilterProbes: m.view(s).initial}
	if s.Reduction() == SemiJoin {
		pc.Phase1Probes = pc.FilterProbes
	}
	set := plan.SetOf(plan.Root)
	for _, id := range o {
		hash, filter := m.marginal(s, id, set)
		pc.HashProbes += hash
		pc.FilterProbes += filter
		set = set.With(id)
	}
	if flatOutput && s.Factorized() {
		pc.ExpandedTuples = m.OutputTuples()
	}
	pc.Total = pc.HashProbes + m.weights.Filter*pc.FilterProbes + m.weights.Expand*pc.ExpandedTuples
	return pc
}
