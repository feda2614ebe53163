package opt

import (
	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
)

// This file implements the classical rank-ordering algorithm with tree
// precedence constraints (Ibaraki & Kameda 1984; Krishnamurthy, Boral &
// Zaniolo 1986), used where the paper relies on its optimality: the
// phase-2 order of SJ+STD, whose cost has the ASI form
//
//	C(o) = sum_i c_i * prod_{j<i} s_j
//
// with per-operator cost c_i and selectivity s_i. Modules (contiguous
// subsequences) are merged bottom-up: the module with the globally
// minimal rank (s-1)/c either starts the schedule (if its parent is
// already scheduled) or is glued to its parent, which the adjacent
// sequence interchange property proves optimal.

// rankJob is one operator in the sequencing problem.
type rankJob struct {
	id plan.NodeID
	c  float64 // cost of running the operator on one input tuple
	s  float64 // selectivity: output tuples per input tuple
}

// rankModule is a merged sequence of jobs.
type rankModule struct {
	seq    []plan.NodeID
	c, s   float64
	parent int // index into modules, -1 for forest roots
	dead   bool
}

func (m *rankModule) rank() float64 {
	if m.c == 0 {
		return 0
	}
	return (m.s - 1) / m.c
}

// mergeInto appends child m2 to parent m1: the combined sequence runs
// m1 then m2, so c = c1 + s1*c2 and s = s1*s2.
func mergeInto(m1, m2 *rankModule) {
	m1.seq = append(m1.seq, m2.seq...)
	m1.c = m1.c + m1.s*m2.c
	m1.s = m1.s * m2.s
}

// rankOrderPrecedence returns the optimal sequence of the given jobs
// under forest precedence: job i must appear after its parent
// parentOf(id) unless the parent is plan.Root (which is the already-
// scheduled driver). Jobs must be closed under parents.
func rankOrderPrecedence(jobs []rankJob, parentOf func(plan.NodeID) plan.NodeID) plan.Order {
	if len(jobs) == 0 {
		return plan.Order{}
	}
	modules := make([]rankModule, len(jobs))
	index := make(map[plan.NodeID]int, len(jobs))
	for i, j := range jobs {
		modules[i] = rankModule{seq: []plan.NodeID{j.id}, c: j.c, s: j.s, parent: -1}
		index[j.id] = i
	}
	for i, j := range jobs {
		if p := parentOf(j.id); p != plan.Root {
			pi, ok := index[p]
			if !ok {
				panic("opt: rankOrderPrecedence: job set not closed under parents")
			}
			modules[i].parent = pi
		}
	}

	var result plan.Order
	remaining := len(modules)
	for remaining > 0 {
		// Find the live module with minimal rank; ties broken by the
		// smallest leading NodeID for determinism.
		best := -1
		for i := range modules {
			if modules[i].dead {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			ri, rb := modules[i].rank(), modules[best].rank()
			if ri < rb || (ri == rb && modules[i].seq[0] < modules[best].seq[0]) {
				best = i
			}
		}
		m := &modules[best]
		if m.parent == -1 {
			// Schedulable now: emit and promote children to roots.
			result = append(result, m.seq...)
			m.dead = true
			remaining--
			for i := range modules {
				if !modules[i].dead && modules[i].parent == best {
					modules[i].parent = -1
				}
			}
			continue
		}
		// Glue to parent; children of m now hang off the parent.
		p := m.parent
		mergeInto(&modules[p], m)
		m.dead = true
		remaining--
		for i := range modules {
			if !modules[i].dead && modules[i].parent == best {
				modules[i].parent = p
			}
		}
	}
	return result
}

// RankOrderOptimalSTD returns the provably optimal left-deep order for
// the classical STD cost model (Section 2.1): the cost sum_i prod_{j<i}
// s_j has the ASI property with rank (s-1)/c, so the Ibaraki-Kameda
// module-merging algorithm is exact under tree precedence constraints.
// This is the algorithm "modern query optimizers" idealize; comparing
// its plans against the COM-model optimum isolates the cost-model gap
// from any search noise.
func RankOrderOptimalSTD(m *cost.Model) Result {
	t := m.Tree()
	jobs := make([]rankJob, 0, t.Len()-1)
	for _, id := range t.NonRoot() {
		jobs = append(jobs, rankJob{id: id, c: m.ProbeCost(id), s: t.Stats(id).Selectivity()})
	}
	return newResult(m, cost.STD, rankOrderPrecedence(jobs, t.Parent))
}
