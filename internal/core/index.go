package core

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// EstimateIndex remembers the child estimates of the top of the tree against
// one immutable version of a query filter, for as long as that version
// lives. An estimate is a function of a node filter and the query filter;
// a query filter that is published copy-on-write (setdb's stored sets, the
// counting filter's snapshot) never changes, so whatever a request computed
// against it holds for every later request on the same version, and the
// index hangs on the version itself (it is the cold half of the filter's
// Version, which says where that lives and why nothing evicts or invalidates
// it). Once the version has paid for a scan of
// the leaves its draws pick from its Positives and read no estimate.
//
// The tree side can change under a version: pruned-tree growth swaps node
// filters. Every remembered pair is therefore filed under the stamps of the
// two child filters it was computed from (boxedFilter.stamp; their sum, see
// indexSlot) and is served only while the children still carry them;
// otherwise that pair is computed again and filed anew. The check is exact
// and per node: growth elsewhere in the tree costs a version nothing.
//
// What is remembered is a fixed table of pairs for the top Levels() levels
// in heap order (root 1, children 2i and 2i+1). A pair costs the same 24
// bytes whatever the filter size m and saves two m/64-word AND-popcounts
// each time it is read, so the table is allowed indexShare⁻¹ of the
// version's own bit vector: it covers the whole tree where estimates are
// dear (m = 273 404, depth 7: all 127 pairs, 3 KB beside a 34 KB filter)
// and only the levels every draw passes where they are cheap (m = 27 341,
// depth 8: 15 pairs, 360 B beside 3.4 KB). Below it a descent computes its
// estimates, each time.
//
// Only SampleVersion reads it. Sample, SampleScratch, SampleN and
// Reconstruct compute what they always computed, so the paper's cost units
// are not touched, and a remembered pair is the pair of float64s that would
// have been computed: ids for a given rng state are SampleScratch's.
type EstimateIndex struct {
	tree *Tree
	// slots[i-1] belongs to the internal node at heap position i.
	slots []indexSlot
}

// indexSlot is one remembered pair, written in place: a seqlock whose
// sequence number is also the name of what was written.
//
// version is the sum of the stamps of the two child filters the estimates
// were computed from (0 for a missing child), or slotBusy while somebody is
// computing them. A node's children are never replaced and their stamps
// only grow, so the sum grows whenever either filter changes and never
// returns to an earlier value: it names one state of the pair, and a reader
// that finds the sum it expects before and after reading the two estimates
// has read that state's estimates whole. Zero is the empty slot; an internal
// node has a child, so its sum is never zero.
type indexSlot struct {
	version     atomic.Uint64
	left, right atomic.Uint64 // math.Float64bits
}

const (
	slotBusy = math.MaxUint64
	// indexSlotBytes is what one remembered pair costs.
	indexSlotBytes = 24
	// indexShare is the part of a version's bit-vector bytes its index may
	// take: one eighth.
	indexShare = 8
)

// estimates returns the pair of state v, from the slot if that is what it
// holds and through compute otherwise. Whoever finds the slot behind v
// claims it, computes and files the pair; whoever arrives meanwhile waits
// for that pair alone — two AND-popcounts, microseconds, so it yields
// rather than parks — and reads it back: the concurrent requests on one
// version pay for each state of a pair once between them. computed reports
// whether this call ran compute.
func (s *indexSlot) estimates(v uint64, compute func() (left, right float64)) (left, right float64, computed bool) {
	for {
		switch cur := s.version.Load(); {
		case cur == v:
			left, right = math.Float64frombits(s.left.Load()), math.Float64frombits(s.right.Load())
			if s.version.Load() == v {
				return left, right, false
			}
		case cur == slotBusy:
			runtime.Gosched()
		case cur > v:
			// A later state is filed already: the caller loaded the children
			// just before growth replaced one. Its pair is its own.
			left, right = compute()
			return left, right, true
		case s.version.CompareAndSwap(cur, slotBusy):
			left, right = compute()
			s.left.Store(math.Float64bits(left))
			s.right.Store(math.Float64bits(right))
			s.version.Store(v)
			return left, right, true
		}
	}
}

// indexLevels returns the number of tree levels an index beside a filter of
// viewBytes may cover: the largest L ≤ depth whose full table of 2^L − 1
// pairs fits in viewBytes/indexShare.
func indexLevels(viewBytes uint64, depth int) int {
	levels := 0
	for levels < depth && uint64(2<<levels-1)*indexSlotBytes <= viewBytes/indexShare {
		levels++
	}
	return levels
}

// Levels returns how many levels from the root down the index covers; 0 for
// a nil index.
func (x *EstimateIndex) Levels() int {
	if x == nil {
		return 0
	}
	return bits.Len(uint(len(x.slots)))
}

// Bytes returns the size of the index's table.
func (x *EstimateIndex) Bytes() uint64 { return uint64(len(x.slots)) * indexSlotBytes }

// covers reports whether the internal node at heap position pos is in the
// index.
func (x *EstimateIndex) covers(pos uint64) bool { return x != nil && pos <= uint64(len(x.slots)) }
