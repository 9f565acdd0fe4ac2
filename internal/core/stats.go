package core

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
		fill := float64(n.filter().count()) / float64(t.cfg.Bits)
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
