// Keyword index: the paper's §3.2 information-retrieval example — "the
// list of documents where a keyword occurs" stored per keyword as a Bloom
// filter. This example builds a persistent SetDB posting index, saves it
// to disk, reloads it in a fresh database (as a serving process would),
// and answers queries by sampling and reconstruction — including an
// exactly-uniform sample picked from a filter version's packed positives.
//
// Run with:
//
//	go run ./examples/keywordindex
package main

import (
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	bloomsample "repro"
)

const (
	docSpace = 2_000_000 // document-id namespace
	accuracy = 0.95
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds, saves, reloads and queries the index at the fixed seed 77,
// printing what it finds to w.
func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(77))

	// A synthetic corpus: keyword df (document frequency) follows a rough
	// power law; "rare" keywords hit hundreds of docs, "stopword-ish"
	// ones hit tens of thousands.
	keywords := map[string]int{
		"bloom": 400, "filter": 1200, "sampling": 800, "database": 5000,
		"index": 9000, "query": 20000, "the": 60000,
	}
	postings := map[string][]uint64{}
	for _, kw := range slices.Sorted(maps.Keys(keywords)) { // in one order, so the seed fixes the corpus
		postings[kw] = randomDocs(rng, keywords[kw])
	}
	// Make 'bloom' and 'filter' genuinely co-occur in 50 documents (as
	// they would in a real corpus), so the AND query below has answers.
	copy(postings["filter"][:50], postings["bloom"][:50])

	// Ingest: open a database planned for the typical posting size, add
	// every posting list, persist.
	db, err := bloomsample.Open(docSpace, bloomsample.WithAccuracy(accuracy), bloomsample.WithDesignSetSize(5000), bloomsample.WithK(3))
	if err != nil {
		return err
	}
	for kw, docs := range postings {
		if err := db.Add(kw, docs...); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp("", "keywordindex")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "postings.db")
	if err := db.Save(path); err != nil {
		return err
	}
	info, _ := os.Stat(path)
	fmt.Fprintf(w, "ingested %d keywords; index file %s (%.1f MB) — the corpus itself is discarded\n",
		db.Len(), filepath.Base(path), float64(info.Size())/(1<<20))

	// Serve: a fresh process loads the index.
	srv, err := bloomsample.LoadSetDB(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving %d keywords: %v\n", srv.Len(), srv.Keys())

	// Query 1: "show me a few documents mentioning 'sampling'".
	docs, err := srv.SampleN("sampling", 5, false, rng, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "5 docs for 'sampling': %v\n", docs)

	// Query 2: estimated result size of "bloom AND filter", then the
	// actual documents via reconstruction of the intersection filter.
	est, err := srv.IntersectionEstimate("bloom", "filter")
	if err != nil {
		return err
	}
	both, err := srv.Filter("bloom").Intersect(srv.Filter("filter"))
	if err != nil {
		return err
	}
	hits, err := srv.Tree().Reconstruct(both, bloomsample.PruneByAndBits, nil)
	if err != nil {
		return err
	}
	trueBoth := intersectCount(postings["bloom"], postings["filter"])
	fmt.Fprintf(w, "'bloom AND filter': estimated %.0f docs, reconstructed %d candidates, %d true co-occurrences\n",
		est, len(hits), trueBoth)

	// Query 3: an exactly-uniform document sample from a big posting list
	// (for unbiased corpus statistics): picks from the packed positives of
	// the list's filter version, found by one scan of the tree's leaves.
	positives := srv.Tree().VersionFor(srv.Filter("query")).Exact()
	sample := make([]uint64, 1000)
	for i := range sample {
		sample[i] = positives.Select(rng.Intn(positives.Len()))
	}
	fmt.Fprintf(w, "uniform sample of %d docs from 'query' (df %d): picked among the filter's %d positives (%d B packed)\n",
		len(sample), keywords["query"], positives.Len(), positives.Bytes())

	// Query 4: full posting reconstruction for a rare keyword with the
	// fast estimate-pruned traversal; recall is measured against the
	// ground truth (use PruneByAndBits when completeness beats speed).
	var ops bloomsample.Ops
	recon, err := srv.Reconstruct("bloom", bloomsample.PruneByEstimate, &ops)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reconstructed 'bloom': %d candidates for df %d (recall %.0f%%), %d membership queries instead of %d\n",
		len(recon), keywords["bloom"],
		100*float64(intersectCount(recon, postings["bloom"]))/float64(keywords["bloom"]),
		ops.Memberships, docSpace)
	return nil
}

func randomDocs(rng *rand.Rand, df int) []uint64 {
	seen := make(map[uint64]bool, df)
	out := make([]uint64, 0, df)
	for len(out) < df {
		d := rng.Uint64() % docSpace
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

func intersectCount(a, b []uint64) int {
	in := make(map[uint64]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	n := 0
	for _, x := range b {
		if in[x] {
			n++
		}
	}
	return n
}
