package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
)

// UniformSampler draws exactly uniform samples from a query Bloom filter
// through the BloomSampleTree by rejection: the tree descent is used as a
// proposal distribution whose probability is tracked exactly, and a sample
// found at a leaf with ℓ positives reached with path probability p is
// accepted with probability ℓ/(n̂·p·C).
//
// Why this exists: BSTSample's leaf-choice probabilities are products of
// noisy intersection estimates (§5.3), and Proposition 5.2's near-
// uniformity needs ε(m) = √(2nk·(log m + log log m + log n)/m) → 0 —
// which does not hold at the paper's own filter sizes (ε ≈ 1 there). The
// rejection step cancels the proposal entirely: accepted samples are
// uniform over the filter's positives regardless of estimator noise,
// because P(x) = p·(1/ℓ)·[ℓ/(n̂·p·C)] = 1/(n̂·C) for every reachable x.
// An acceptance probability that would exceed 1 (an under-proposed leaf)
// is never returned: the attempt is discarded and C is doubled, so after
// a short self-calibration every positive has acceptance probability
// exactly ℓ/(n̂·p·C) < 1 and the output distribution is exactly uniform.
// Clamp events are counted in Stats.Clamped.
//
// The proposal mixes the intersection estimate with a uniform-over-
// namespace component (child weight = ê + β·n̂·rangeFraction), so every
// leaf keeps a path probability within a small factor of its ideal share
// even where the estimator is pure noise, and the tracked probability is
// exact; there is no backtracking — a failed leaf is a rejection, and the
// sampler retries from the root.
//
// A UniformSampler is an immutable (tree, query filter, n̂ of that filter)
// bound to a Calibration, and is safe for concurrent use: any number of
// goroutines can share one — each still owns its rand source and Ops
// accumulator — and any number of samplers, over successive versions of one
// growing set, can share one Calibration. Nothing of a sampler moves: a
// newer version of the filter gets a sampler of its own.
type UniformSampler struct {
	t    *Tree
	q    *bloom.Filter
	nHat float64
	*Calibration
}

// uniformMix is β, the weight of the uniform-over-namespace component in
// the proposal.
const uniformMix = 2.0

// Calibration is what uniform draws have learned about a set and must not
// forget for as long as it lives: the acceptance headroom, the attempt
// bound that follows it, and the rejection statistics. It is all atomics,
// and its updates are monotone (the safety factor only ever rises, via
// compare-and-swap max), which keeps racing recalibrations — by the draws
// of one sampler or of several bound to it — from regressing the learned
// headroom. Exactness does not depend on who else shares it: an attempt
// loads its sampler's n̂ and C once and accepts with ℓ/(n̂·p·C) < 1, so
// every positive of that sampler's filter is returned with probability
// 1/(n̂·C) by that attempt, whatever C other attempts read. The zero value
// is a fresh calibration.
type Calibration struct {
	// safetyBits holds float64 bits, raised monotonically with CAS-max
	// (atomicMaxFloat). safety is C in the acceptance rule: larger values
	// reduce clamping (better uniformity in the extreme tails) but cost
	// proportionally more attempts.
	safetyBits  atomic.Uint64
	maxAttempts atomic.Int64

	attempts, accepted, clamped atomic.Uint64
}

// UniformStats reports a calibration: its rejection behaviour and what it
// has learned. It carries the JSON tags it is served under (/v1/stats,
// "samplers").
type UniformStats struct {
	// Attempts is the total number of root-to-leaf descents.
	Attempts uint64 `json:"attempts"`
	// Accepted is the number of samples returned.
	Accepted uint64 `json:"accepted"`
	// Clamped counts acceptances whose probability was capped at 1
	// (slight local over-sampling; the safety factor doubles on each).
	Clamped uint64 `json:"clamped"`
	// SafetyFactor is the acceptance headroom C, MaxAttempts the
	// rejection-loop bound, both as they stand.
	SafetyFactor float64 `json:"safety_factor"`
	MaxAttempts  int     `json:"max_attempts"`
}

// atomicMaxFloat raises the float64 stored in bits to at least v.
func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// NewUniformSampler prepares a uniform sampler for one query filter, with a
// calibration of its own.
func (t *Tree) NewUniformSampler(q *bloom.Filter) (*UniformSampler, error) {
	return t.NewUniformSamplerWith(q, new(Calibration))
}

// NewUniformSamplerWith prepares a uniform sampler for one query filter,
// bound to cal: what earlier samplers on cal — over earlier versions of the
// same set — learned is where this one starts, and what it learns they
// keep. The filter's estimated cardinality is computed once, here.
func (t *Tree) NewUniformSamplerWith(q *bloom.Filter, cal *Calibration) (*UniformSampler, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}
	nHat := t.clampEstimate(q.EstimateCardinality())
	// For sets much smaller than the leaf count the proposal cannot know
	// which near-empty leaf hides two elements instead of one, so the
	// acceptance headroom must scale with leaves/n̂; clamp-doubling
	// handles whatever this initial guess still misses.
	leaves := float64(uint64(1) << t.cfg.Depth)
	c := 8.0
	if scaled := 4 * leaves / nHat; scaled > c {
		c = scaled
	}
	atomicMaxFloat(&cal.safetyBits, c)
	for {
		old := cal.maxAttempts.Load()
		if old >= int64(64*c) || cal.maxAttempts.CompareAndSwap(old, int64(64*c)) {
			break
		}
	}
	return &UniformSampler{t: t, q: q, nHat: nHat, Calibration: cal}, nil
}

// clampEstimate bounds a cardinality estimate to [1, Namespace].
func (t *Tree) clampEstimate(nHat float64) float64 {
	if math.IsInf(nHat, 1) || nHat > float64(t.cfg.Namespace) {
		nHat = float64(t.cfg.Namespace)
	}
	if nHat < 1 {
		nHat = 1
	}
	return nHat
}

// SafetyFactor returns the current acceptance headroom C.
func (c *Calibration) SafetyFactor() float64 {
	return math.Float64frombits(c.safetyBits.Load())
}

// SetMaxAttempts bounds the rejection loop (default 64·C, doubled on each
// clamp event).
func (c *Calibration) SetMaxAttempts(n int) { c.maxAttempts.Store(int64(n)) }

// MaxAttempts returns the current rejection-loop bound.
func (c *Calibration) MaxAttempts() int { return int(c.maxAttempts.Load()) }

// Stats returns the cumulative rejection statistics and the calibration
// they led to.
func (c *Calibration) Stats() UniformStats {
	return UniformStats{
		Attempts:     c.attempts.Load(),
		Accepted:     c.accepted.Load(),
		Clamped:      c.clamped.Load(),
		SafetyFactor: c.SafetyFactor(),
		MaxAttempts:  c.MaxAttempts(),
	}
}

// Sample returns one uniform sample from the set stored in the query
// filter (including its false positives). It returns ErrNoSample when the
// rejection loop exhausts MaxAttempts — in practice only for (nearly)
// empty query filters.
func (s *UniformSampler) Sample(rng *rand.Rand, ops *Ops) (uint64, error) {
	if s.t.rootNode() == nil {
		return 0, ErrNoSample
	}
	scratch := leafScratch.Get().(*[]uint64)
	defer leafScratch.Put(scratch)
	for attempt := int64(0); attempt < s.maxAttempts.Load(); attempt++ {
		s.attempts.Add(1)
		x, ok := s.descend(rng, ops, scratch)
		if ok {
			s.accepted.Add(1)
			return x, nil
		}
	}
	return 0, ErrNoSample
}

// leafScratch pools the buffers the sampler's attempts scan leaves into: a
// sampler is shared by any number of goroutines and its Sample takes no
// scratch from the caller.
var leafScratch = sync.Pool{New: func() any {
	s := make([]uint64, 0, ScratchHint)
	return &s
}}

// SampleN draws r uniform samples (with replacement) by repeated Sample.
func (s *UniformSampler) SampleN(r int, rng *rand.Rand, ops *Ops) ([]uint64, error) {
	out := make([]uint64, 0, r)
	for i := 0; i < r; i++ {
		x, err := s.Sample(rng, ops)
		if err == ErrNoSample {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, x)
	}
	return out, nil
}

// descend performs one proposal walk and the acceptance test. The safety
// factor is loaded once per attempt so the walk is internally consistent
// even while another goroutine recalibrates.
func (s *UniformSampler) descend(rng *rand.Rand, ops *Ops, scratch *[]uint64) (uint64, bool) {
	q, nHat := s.q, s.nHat
	safety := s.SafetyFactor()
	n := s.t.rootNode()
	pathProb := 1.0
	for {
		left, right := n.children()
		if left == nil && right == nil {
			break
		}
		if ops != nil {
			ops.NodesVisited++
		}
		wl := s.childWeight(left, q, nHat, ops)
		wr := s.childWeight(right, q, nHat, ops)
		if wl == 0 && wr == 0 {
			return 0, false // pruned-tree dead end (both children missing)
		}
		pl := wl / (wl + wr)
		if rng.Float64() < pl {
			n, pathProb = left, pathProb*pl
		} else {
			n, pathProb = right, pathProb*(1-pl)
		}
	}
	if ops != nil {
		ops.NodesVisited++
	}

	// The acceptance rule needs ℓ, the leaf's exact number of positives, so
	// the leaf is scanned whole (never sampled, as a BSTSample draw's is).
	hits := s.t.positivesInLeaf(n, q, ops, (*scratch)[:0])
	*scratch = hits
	count := len(hits)
	if count == 0 {
		return 0, false
	}
	alpha := float64(count) / (nHat * pathProb * safety)
	if alpha >= 1 {
		// Under-proposed leaf: returning now would bias the output, so
		// discard the attempt and widen the headroom for all future
		// acceptances (self-calibration; exact once clamps stop). The
		// doubling is a CAS-max so racing clamps compose instead of
		// overwriting each other.
		s.clamped.Add(1)
		atomicMaxFloat(&s.safetyBits, safety*2)
		for {
			old := s.maxAttempts.Load()
			if s.maxAttempts.CompareAndSwap(old, old*2) {
				break
			}
		}
		return 0, false
	}
	if rng.Float64() >= alpha {
		return 0, false
	}
	return hits[rng.Intn(count)], true
}

// childWeight is the proposal weight of a child: the estimated
// intersection size plus the uniform-mixture share β·n̂·(range/M), or 0
// for a missing child.
func (s *UniformSampler) childWeight(child *node, q *bloom.Filter, nHat float64, ops *Ops) float64 {
	if child == nil {
		return 0
	}
	if ops != nil {
		ops.Intersections++
	}
	cf := child.filter()
	m := cf.M()
	k := cf.K()
	t1 := cf.SetBits()
	t2 := q.SetBits()
	tand := cf.IntersectionSetBits(q)
	est := bloom.EstimateIntersection(m, k, t1, t2, tand)
	if est < 0 || math.IsNaN(est) {
		est = 0
	}
	if math.IsInf(est, 1) || est > nHat {
		est = nHat
	}
	// Shrink the estimate by one standard deviation of its chance-level
	// noise: the AND bit count fluctuates by ~√(t1·t2/m) even for
	// disjoint sets, and at mid-tree levels that noise (converted to
	// elements) exceeds the true count. Without shrinkage the proposal
	// chases noise and the acceptance probabilities spread over orders of
	// magnitude (heavy clamping).
	if est > 0 && est < nHat {
		sigmaBits := 1.5 * math.Sqrt(float64(t1)*float64(t2)/float64(m))
		lo := tand - uint64(sigmaBits)
		if sigmaBits >= float64(tand) {
			lo = 0
		}
		estLo := bloom.EstimateIntersection(m, k, t1, t2, lo)
		if math.IsNaN(estLo) || math.IsInf(estLo, 0) || estLo < 0 {
			estLo = 0
		}
		est = estLo
	}
	frac := float64(child.hi-child.lo) / float64(s.t.cfg.Namespace)
	return est + uniformMix*nHat*frac
}

// String summarizes the sampler's configuration and statistics.
func (s *UniformSampler) String() string {
	return fmt.Sprintf("UniformSampler(n̂=%.1f C=%.1f β=%.2f attempts=%d accepted=%d clamped=%d)",
		s.nHat, s.SafetyFactor(), uniformMix,
		s.attempts.Load(), s.accepted.Load(), s.clamped.Load())
}
