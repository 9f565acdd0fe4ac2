package core

import (
	"runtime"
	"sort"
	"sync"
)

// BuildTreeParallel constructs the same full BloomSampleTree as BuildTree
// using up to workers goroutines (0 means GOMAXPROCS). The namespace is
// split at a shallow level into independent subtrees that are built
// concurrently; the remaining top levels are unioned serially. Intended
// for paper-scale namespaces (10⁷ and beyond), where construction is a
// pure hash pass and parallelizes near-linearly.
func BuildTreeParallel(cfg Config, workers int) (*Tree, error) {
	t, err := newTree(cfg, false)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Fan out at the shallowest level with >= workers subtrees (capped at
	// the tree depth itself).
	fanDepth := 0
	for (1<<fanDepth) < workers && fanDepth < t.cfg.Depth {
		fanDepth++
	}
	if fanDepth == 0 {
		return BuildTree(cfg)
	}

	type job struct {
		lo, hi uint64
		depth  int
		out    *node
	}
	// Enumerate the fan-out ranges exactly as the serial recursion would.
	var jobs []*job
	var enumerate func(lo, hi uint64, depth, remaining int)
	enumerate = func(lo, hi uint64, depth, remaining int) {
		if remaining == 0 || hi-lo <= 1 {
			jobs = append(jobs, &job{lo: lo, hi: hi, depth: depth})
			return
		}
		mid := split(lo, hi)
		enumerate(lo, mid, depth-1, remaining-1)
		enumerate(mid, hi, depth-1, remaining-1)
	}
	enumerate(0, cfg.Namespace, cfg.Depth, fanDepth)

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j *job) {
			defer wg.Done()
			defer func() { <-sem }()
			j.out = t.buildFull(j.lo, j.hi, j.depth)
		}(j)
	}
	wg.Wait()

	// Stitch the subtrees under the top levels, unioning upward.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].lo < jobs[b].lo })
	level := make([]*node, len(jobs))
	for i, j := range jobs {
		level[i] = j.out
	}
	for len(level) > 1 {
		next := make([]*node, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			l, r := level[i], level[i+1]
			f, err := l.filter().Union(r.filter())
			if err != nil {
				return nil, err
			}
			parent := newNode(l.lo, r.hi, f)
			parent.left.Store(l)
			parent.right.Store(r)
			next = append(next, parent)
		}
		level = next
	}
	t.root.Store(level[0])
	t.count(measure(level[0]))
	return t, nil
}

// Stats describes the realized structure of a tree, level by level — the
// diagnostics behind the §5.5/§5.6 discussion: node filters near the top
// saturate (fill → 1) and carry no pruning signal, and the level at which
// fill drops below ~0.5 is where the descent starts discriminating.
type Stats struct {
	// Levels has one entry per tree level, root first.
	Levels []LevelStats
	// SaturationDepth is the first level whose mean fill ratio is below
	// 0.9 (len(Levels) if none).
	SaturationDepth int
	// Nodes and MemoryBytes mirror the Tree getters.
	Nodes       uint64
	MemoryBytes uint64
}

// LevelStats aggregates one tree level.
type LevelStats struct {
	Level    int
	Nodes    int
	MinFill  float64
	MeanFill float64
	MaxFill  float64
}

// ComputeStats walks the tree and aggregates per-level fill ratios.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Nodes: t.Nodes(), MemoryBytes: t.MemoryBytes()}
	if t.rootNode() == nil {
		return s
	}
	type lv struct {
		sum      float64
		min, max float64
		n        int
	}
	var levels []lv
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n == nil {
			return
		}
		for len(levels) <= depth {
			levels = append(levels, lv{min: 2})
		}
		fill := n.filter().FillRatio()
		l := &levels[depth]
		l.sum += fill
		l.n++
		if fill < l.min {
			l.min = fill
		}
		if fill > l.max {
			l.max = fill
		}
		left, right := n.children()
		walk(left, depth+1)
		walk(right, depth+1)
	}
	walk(t.rootNode(), 0)
	s.SaturationDepth = len(levels)
	for i, l := range levels {
		ls := LevelStats{Level: i, Nodes: l.n, MinFill: l.min, MeanFill: l.sum / float64(l.n), MaxFill: l.max}
		s.Levels = append(s.Levels, ls)
		if s.SaturationDepth == len(levels) && ls.MeanFill < 0.9 {
			s.SaturationDepth = i
		}
	}
	return s
}
