// Package faultinject is the deterministic fault-injection harness of
// the serving stack: a registry of named failpoints compiled into the
// executor, the artifact cache, admission and the shard gather path,
// each of which can be armed to inject an error, a panic or a delay on
// deterministically chosen hits. The kernel packages (hashtable,
// bitvector, storage) compile in none: the executor fires on their
// behalf at the stop hook it hands them.
//
// The package exists so the resilience layer can be *proven*: the
// chaos suite (internal/service's chaos tests) arms every site in
// turn and asserts that no fault crashes the process, leaks an
// admission slot or corrupts the artifact cache, and that every query
// that survives is bit-identical to a fault-free run.
//
// Design constraints:
//
//   - Disabled cost is one atomic pointer load per Fire call. No site
//     is ever armed in production binaries unless an operator or test
//     calls Enable, so the hooks are free on the hot path.
//   - Triggers are deterministic. Each site numbers its hits with an
//     atomic counter; a spec fires on exact hit numbers (Every/After)
//     or on a splitmix64 draw seeded by (Seed, site, hit index), so a
//     given spec fires on the same hit numbers in every run. Under
//     parallelism the assignment of hit numbers to goroutines races,
//     but the *set* of fired hits does not — which is exactly what the
//     chaos suite's invariants (no crash, no leak, survivors
//     bit-identical) need.
//   - Every site has an error path: ModeError fails (or, at the cache
//     insert, drops) what the site guards, and only ModePanic panics.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Mode selects what an armed failpoint does when it fires.
type Mode uint8

const (
	// ModeError makes Fire return an *Injected error.
	ModeError Mode = iota
	// ModePanic makes Fire panic with an *Injected value.
	ModePanic
	// ModeDelay makes Fire sleep for Spec.Delay and return nil.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Spec arms one failpoint site. Exactly one trigger applies: Every
// (fire on hits where hit%Every == 0, 1-indexed) when nonzero,
// otherwise Prob (a deterministic seeded draw per hit). Limit, when
// nonzero, bounds the total number of fires.
type Spec struct {
	// Site names the failpoint (see the Site* constants).
	Site string
	// Mode is what firing does: error, panic or delay.
	Mode Mode
	// Every fires deterministically on every Every-th hit (1 = every
	// hit). Takes precedence over Prob when nonzero.
	Every uint64
	// Prob fires on a deterministic splitmix64 draw over
	// (Seed, Site, hit index); 0.25 fires on ~a quarter of hits, on the
	// same hit numbers for the same seed in every run.
	Prob float64
	// Seed seeds the Prob draw.
	Seed uint64
	// Delay is the sleep duration for ModeDelay.
	Delay time.Duration
	// Limit caps the total fires at this site (0 = unlimited).
	Limit uint64
}

// Failpoint site names. Each constant is referenced by the package
// that compiled the hook in, so the catalog here is the single source
// of truth for what can be armed.
const (
	// SiteProbeChunk fires in the executor's phase-2 worker loop,
	// once per driver chunk, before the chunk is probed.
	SiteProbeChunk = "exec/probe-chunk"
	// SiteBuildRelation fires in the executor's phase-1 fan-out, once
	// per relation, before that relation's hash table is built.
	SiteBuildRelation = "exec/build-relation"
	// SiteReduceChunk fires in the semi-join reduction, once per
	// word-aligned mask chunk (and once per whole reduction on the
	// sequential path).
	SiteReduceChunk = "exec/reduce-chunk"
	// SiteBuildMorsel fires at the executor's build poll (the stop hook
	// of every hash-table build a run starts): before the build, between
	// its passes and before each gather morsel. ModeError fails the
	// query directly.
	SiteBuildMorsel = "exec/build-morsel"
	// SiteCacheInsert fires in the artifact cache's insert path.
	// ModeError drops the insert (the query still succeeds — the cache
	// is best-effort); ModePanic fails the inserting query.
	SiteCacheInsert = "service/cache-insert"
	// SiteAdmit fires at admission, before a query waits for a slot.
	// ModeError rejects the query as shed load.
	SiteAdmit = "service/admit"
	// SiteShardProbe fires in exec.RunSharded, the in-process scatter,
	// once per shard before the shard's run. ModeError/ModePanic fail
	// the call; ModeDelay makes the shard a straggler. The serving tier
	// dispatches its own shards and fires SiteShardDispatch instead.
	SiteShardProbe = "exec/shard-probe"
	// SiteShardDispatch fires in the serving tier's shard gather path,
	// once per dispatched shard attempt (initial and retry alike, local
	// or remote), before the attempt starts. ModeError/ModePanic
	// fail the attempt — exercising classified retry, failover and
	// degraded coverage — and ModeDelay stalls the dispatch.
	SiteShardDispatch = "service/shard-dispatch"
)

// Sites lists every failpoint compiled into the tree, the executor's
// before the serving tier's, for catalogs and CLIs.
func Sites() []string {
	return []string{
		SiteProbeChunk, SiteBuildRelation, SiteReduceChunk,
		SiteBuildMorsel, SiteShardProbe,
		SiteCacheInsert, SiteAdmit, SiteShardDispatch,
	}
}

// Injected is the error (ModeError) or panic value (ModePanic) a fired
// failpoint produces.
type Injected struct {
	Site string
	Mode Mode
	// Hit is the 1-indexed hit number that fired.
	Hit uint64
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s (hit %d)", e.Mode, e.Site, e.Hit)
}

// IsInjected reports whether v (an error or a recovered panic value)
// originated from a fired failpoint, directly or wrapped.
func IsInjected(v any) bool {
	switch x := v.(type) {
	case *Injected:
		return true
	case error:
		for err := x; err != nil; {
			if _, ok := err.(*Injected); ok {
				return true
			}
			u, ok := err.(interface{ Unwrap() error })
			if !ok {
				return false
			}
			err = u.Unwrap()
		}
	}
	return false
}

// SiteStats snapshots one armed site's counters.
type SiteStats struct {
	Hits  uint64 `json:"hits"`
	Fires uint64 `json:"fires"`
}

// site is one armed failpoint's runtime state.
type site struct {
	spec Spec
	hits atomic.Uint64
	// triggered counts hits whose trigger matched (Limit is enforced
	// against it); fires counts faults actually injected.
	triggered atomic.Uint64
	fires     atomic.Uint64
}

// plan is one immutable Enable configuration; the active plan is
// swapped atomically, so Fire never locks.
type plan struct {
	sites map[string]*site
}

var active atomic.Pointer[plan]

// Enable arms the given failpoint specs, replacing any previously
// armed set. Hit and fire counters start at zero.
func Enable(specs ...Spec) {
	p := &plan{sites: make(map[string]*site, len(specs))}
	for _, sp := range specs {
		p.sites[sp.Site] = &site{spec: sp}
	}
	active.Store(p)
}

// Disable disarms all failpoints; Fire returns to its one-atomic-load
// fast path.
func Disable() { active.Store(nil) }

// Enabled reports whether any failpoint is armed.
func Enabled() bool { return active.Load() != nil }

// Stats snapshots the hit/fire counters of every armed site.
func Stats() map[string]SiteStats {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := make(map[string]SiteStats, len(p.sites))
	for name, s := range p.sites {
		out[name] = SiteStats{Hits: s.hits.Load(), Fires: s.fires.Load()}
	}
	return out
}

// Fire evaluates the named failpoint: nil when disarmed or when this
// hit does not trigger; otherwise it sleeps (ModeDelay), panics with
// an *Injected (ModePanic), or returns an *Injected error (ModeError).
// Safe for concurrent use; when no failpoints are armed the cost is a
// single atomic load.
func Fire(name string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	s, ok := p.sites[name]
	if !ok {
		return nil
	}
	hit := s.hits.Add(1)
	if !s.triggers(hit) {
		return nil
	}
	if s.spec.Limit > 0 && s.triggered.Add(1) > s.spec.Limit {
		return nil
	}
	s.fires.Add(1)
	inj := &Injected{Site: name, Mode: s.spec.Mode, Hit: hit}
	switch s.spec.Mode {
	case ModeDelay:
		time.Sleep(s.spec.Delay)
		return nil
	case ModePanic:
		panic(inj)
	default:
		return inj
	}
}

// triggers decides deterministically whether hit number n fires.
func (s *site) triggers(n uint64) bool {
	if s.spec.Every > 0 {
		return n%s.spec.Every == 0
	}
	if s.spec.Prob <= 0 {
		return false
	}
	if s.spec.Prob >= 1 {
		return true
	}
	// Deterministic per-hit draw: splitmix64 over (seed, site, hit).
	x := s.spec.Seed ^ hashString(s.spec.Site) ^ (n * 0x9e3779b97f4a7c15)
	x = splitmix64(x)
	return float64(x>>11)/(1<<53) < s.spec.Prob
}

// splitmix64 is the standard 64-bit finalizer-quality mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, enough to decorrelate site names in the draw.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
