package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Paper-scale constants of the §8.1 Twitter crawl the synthetic substitute
// mirrors: 7.2 million user ids spread over a namespace of about 2.2
// billion, with 24,000 hashtags of at least 1,000 occurrences each.
const (
	TwitterNamespace  uint64 = 2_200_000_000
	TwitterPopulation        = 7_200_000
	TwitterHashtags          = 24_000
	TwitterMinTagSize        = 1_000
)

// CrawlConfig parametrizes the synthetic Twitter-crawl substitute. The
// zero values of the size fields select the paper-scale constants; tests
// and benchmarks scale them down proportionally.
type CrawlConfig struct {
	// M is the namespace (user-id domain) size.
	M uint64
	// Population is the number of distinct user ids in the crawl.
	Population int
	// Hashtags is the number of query sets to synthesize.
	Hashtags int
	// MinTagSize is the smallest hashtag audience (the paper keeps tags
	// with >= 1000 occurrences).
	MinTagSize int
	// ZipfS is the Zipf exponent for hashtag audience sizes (> 1).
	ZipfS float64
	// MaxTagFraction caps a hashtag audience at this fraction of the
	// population (default 0.05).
	MaxTagFraction float64
}

func (c CrawlConfig) withDefaults() CrawlConfig {
	if c.M == 0 {
		c.M = TwitterNamespace
	}
	if c.Population == 0 {
		c.Population = TwitterPopulation
	}
	if c.Hashtags == 0 {
		c.Hashtags = TwitterHashtags
	}
	if c.MinTagSize == 0 {
		c.MinTagSize = TwitterMinTagSize
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.5
	}
	if c.MaxTagFraction == 0 {
		c.MaxTagFraction = 0.05
	}
	return c
}

// Crawl is a synthetic stand-in for the paper's Twitter dataset: a
// population of user ids occupying part of a large namespace, and hashtag
// audiences (the query sets) drawn from that population with popularity
// skew. The §8 experiments depend on the crawl only through how sparsely
// the namespace is occupied and how skewed the audience sizes are, and
// both are reproduced (README, "Package layout": internal/workload).
type Crawl struct {
	// Namespace is the occupied namespace the crawl lives in.
	Namespace *OccupiedNamespace
	// Tags holds one audience (sorted, distinct user ids) per hashtag.
	Tags [][]uint64
}

// SynthesizeCrawl builds a synthetic crawl over the given occupied
// namespace. Audience sizes follow a truncated Zipf law over
// [MinTagSize, MaxTagFraction·population]; audience membership favours
// low-rank ("more active") users via an exponential tilt, mimicking the
// heavy-tailed user-activity distribution of real crawls.
func SynthesizeCrawl(rng *rand.Rand, ns *OccupiedNamespace, cfg CrawlConfig) (*Crawl, error) {
	cfg = cfg.withDefaults()
	pop := ns.IDs
	if len(pop) == 0 {
		return nil, fmt.Errorf("workload: empty population")
	}
	if cfg.MinTagSize > len(pop) {
		return nil, fmt.Errorf("workload: min tag size %d exceeds population %d", cfg.MinTagSize, len(pop))
	}
	maxSize := int(cfg.MaxTagFraction * float64(len(pop)))
	if maxSize < cfg.MinTagSize {
		maxSize = cfg.MinTagSize
	}
	c := &Crawl{Namespace: ns, Tags: make([][]uint64, cfg.Hashtags)}
	for i := range c.Tags {
		size := zipfSize(rng, cfg.MinTagSize, maxSize, cfg.ZipfS)
		c.Tags[i] = sampleAudience(rng, pop, size)
	}
	return c, nil
}

// zipfSize draws an audience size in [min, max] with P(size) ∝ size^−s.
func zipfSize(rng *rand.Rand, min, max int, s float64) int {
	if min >= max {
		return min
	}
	// Inverse-CDF sampling of the continuous truncated power law.
	a, b := float64(min), float64(max)
	u := rng.Float64()
	oneMinusS := 1 - s
	x := math.Pow(u*(math.Pow(b, oneMinusS)-math.Pow(a, oneMinusS))+math.Pow(a, oneMinusS), 1/oneMinusS)
	size := int(x)
	if size < min {
		size = min
	}
	if size > max {
		size = max
	}
	return size
}

// sampleAudience picks size distinct ids from pop, favouring low indices
// (rank-tilted): user j is proposed with density ∝ exp(−3·j/len(pop)).
func sampleAudience(rng *rand.Rand, pop []uint64, size int) []uint64 {
	if size >= len(pop) {
		out := append([]uint64(nil), pop...)
		return out
	}
	seen := make(map[int]bool, size)
	out := make([]uint64, 0, size)
	for len(out) < size {
		// Exponential tilt via inverse CDF, clipped to the population.
		u := rng.Float64()
		j := int(-math.Log(1-u*(1-math.Exp(-3))) / 3 * float64(len(pop)))
		if j >= len(pop) {
			j = len(pop) - 1
		}
		if !seen[j] {
			seen[j] = true
			out = append(out, pop[j])
		}
	}
	slices.Sort(out)
	return out
}
