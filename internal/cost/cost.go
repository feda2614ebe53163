// Package cost implements the cost model of Kalumin & Deshpande
// (ICDE 2025, Section 3): estimating the number of probes performed by
// a left-deep pipelined plan over an acyclic join tree, properly
// accounting for the avoidance of redundant probes when a factorized
// intermediate representation is used (COM), and extending the model to
// bitvector-based early pruning (BVP, Section 3.5) and semi-join full
// reduction (SJ, Section 3.6).
//
// All costs are expressed per driver tuple; multiply by the driver
// cardinality N for totals. Probe kinds are weighted: a hash-table
// probe costs 1, a bitvector or semi-join probe costs Weights.Filter
// (paper: 1/2), and expanding one output tuple costs Weights.Expand
// (paper: 1/14).
package cost

import (
	"math"
	"strings"

	"m2mjoin/internal/plan"
)

// Strategy identifies one of the six execution approaches compared in
// the paper (Section 4.1).
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
}

// New returns a cost model for the given tree and weights, with unit
// probe costs (every probe costs 1, the hash-join default).
func New(t *plan.Tree, w Weights) *Model {
	return &Model{tree: t, weights: w}
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
	return m
}

// ProbeCost returns c_id, the cost of one probe into relation id.
func (m *Model) ProbeCost(id plan.NodeID) float64 {
	if m.probeCosts == nil {
		return 1
	}
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
	return m.survival(root, in)
}

func (m *Model) survival(id plan.NodeID, in plan.Set) float64 {
	childProd := 1.0
	any := false
	for _, c := range m.tree.Children(id) {
		if in.Has(c) {
			childProd *= m.survival(c, in)
			any = true
		}
	}
	var mSelf, fo float64
	if id == plan.Root {
		mSelf, fo = 1, 1
	} else {
		st := m.tree.Stats(id)
		mSelf, fo = st.M, st.Fo
	}
	if !any {
		return mSelf
	}
	return mSelf * (1 - math.Pow(1-childProd, fo))
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
	probes := 1.0
	// Walk next's ancestors bottom-up; below is the child of a that
	// lies on the path (next itself at the first step).
	for below, a := next, m.tree.Parent(next); ; below, a = a, m.tree.Parent(a) {
		if a != plan.Root {
			st := m.tree.Stats(a)
			probes *= st.M * st.Fo
		}
		for _, c := range m.tree.Children(a) {
			if c != below && done.Has(c) {
				probes *= m.survival(c, done)
			}
		}
		if a == plan.Root {
			return probes
		}
	}
}

// PlanCost is the cost breakdown of one left-deep plan, expressed per
// driver tuple (multiply by the driver cardinality for totals).
type PlanCost struct {
	Strategy Strategy
	// HashProbes is the expected hash-probe cost: the probe count with
	// each probe weighted by its operator's ProbeCost. Under the
	// default unit costs this equals the expected number of probes.
	HashProbes float64
	// FilterProbes is the expected number of bitvector or semi-join
	// probes (weighted by Weights.Filter in Total).
	FilterProbes float64
	// ExpandedTuples is the expected number of flat output tuples
	// produced by the final expansion (weighted by Weights.Expand).
	// Zero when the output stays factorized or when the strategy is a
	// STD variant (STD materializes as it goes; that work is already
	// reflected in its larger probe counts).
	ExpandedTuples float64
	// Total is the weighted scalar cost.
	Total float64
}

func (m *Model) finish(pc PlanCost) PlanCost {
	pc.Total = pc.HashProbes + m.weights.Filter*pc.FilterProbes + m.weights.Expand*pc.ExpandedTuples
	return pc
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

// CostSTD returns the cost of order o under standard execution
// (the classical model of Section 2.1): every materialized intermediate
// tuple probes every subsequent operator.
func (m *Model) CostSTD(o plan.Order) PlanCost {
	pc := PlanCost{Strategy: STD}
	stream := 1.0
	for _, id := range o {
		pc.HashProbes += stream * m.ProbeCost(id)
		st := m.tree.Stats(id)
		stream *= st.M * st.Fo
	}
	return m.finish(pc)
}

// CostCOM returns the cost of order o when redundant probes are
// avoided through the factorized representation (Section 3.3).
// flatOutput adds the final expansion cost.
func (m *Model) CostCOM(o plan.Order, flatOutput bool) PlanCost {
	pc := PlanCost{Strategy: COM}
	done := plan.SetOf(plan.Root)
	for _, next := range o {
		pc.HashProbes += m.ProbesCOM(next, done) * m.ProbeCost(next)
		done = done.With(next)
	}
	if flatOutput {
		pc.ExpandedTuples = m.OutputTuples()
	}
	return m.finish(pc)
}

// Cost dispatches to the strategy-specific costing of order o.
// flatOutput only affects the COM-based strategies, which require an
// explicit expansion step to produce flat tuples.
func (m *Model) Cost(s Strategy, o plan.Order, flatOutput bool) PlanCost {
	switch s {
	case STD:
		return m.CostSTD(o)
	case COM:
		return m.CostCOM(o, flatOutput)
	case BVPSTD:
		return m.CostBVPSTD(o)
	case BVPCOM:
		return m.CostBVPCOM(o, flatOutput)
	case SJSTD:
		return m.CostSJSTD(o)
	case SJCOM:
		return m.CostSJCOM(o, flatOutput)
	default:
		panic("cost: unknown strategy")
	}
}
