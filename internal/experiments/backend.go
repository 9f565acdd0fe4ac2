package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/setdb"
)

// RunBackend measures the membership backends against each other across
// a backend × set-size × read/write-mix sweep: resident memory per live
// entry, realized false-positive rate, and sampling throughput. All
// three backends are planned from the same accuracy target, so their
// query views share one Bloom profile and the memory comparison is at a
// matched false-positive design point — the headline question is what a
// deletable set costs over the plain filter (counting pays 8× the
// filter bits in counters; cuckoo pays ~2.4 bytes per live entry in
// fingerprints plus the view), and what the write mix does to sampling
// throughput on each.
//
// The bloom rows are the non-deletable baseline (plain sets, Add only);
// their write ops are Adds. Dynamic rows alternate an insert and a
// remove per write op, holding occupancy — and with it the
// false-positive rate — fixed while exercising each backend's
// copy-on-write mutation path.
func RunBackend(c Config) ([]*Table, error) {
	M := smallestNamespace(c)
	backends := []membership.Kind{membership.KindBloom, membership.KindCounting, membership.KindCuckoo}
	mixes := []float64{0, 0.2}
	fpProbes := 20_000

	tbl := &Table{
		ID: "backend",
		Title: fmt.Sprintf("membership backends: memory, false positives and sampling throughput (M=%d, %d fp probes, %d rounds/cell)",
			M, fpProbes, c.Rounds),
		Columns: []string{
			"backend", "n", "writefrac", "bytes_per_entry", "bits_per_entry",
			"load_factor", "fp_rate", "samples_per_sec", "ops_per_sec",
		},
	}

	for _, n := range c.SetSizes {
		for _, kind := range backends {
			opts, err := setdb.PlanOptions(0.9, uint64(n), M, c.K)
			if err != nil {
				return nil, err
			}
			opts.HashKind, opts.Seed = c.HashKind, c.Seed
			dynamic := kind != membership.KindBloom
			if dynamic {
				opts.Backend = kind
			}
			db, err := setdb.Open(opts)
			if err != nil {
				return nil, err
			}

			// Members are even ids, so every odd id is a guaranteed
			// non-member for the false-positive probe.
			rng := c.rng(uint64(n)*31 + uint64(len(kind)))
			seen := make(map[uint64]bool, n)
			members := make([]uint64, 0, n)
			for len(members) < n {
				id := (rng.Uint64() % (M / 2)) * 2
				if !seen[id] {
					seen[id] = true
					members = append(members, id)
				}
			}
			// The creating write names the key's kind; every read below
			// serves either.
			const key = "s"
			if err := db.ApplyBatch([]setdb.Write{{Key: key, IDs: members, Dynamic: dynamic}}); err != nil {
				return nil, err
			}

			stored := db.Membership(key)
			bytesPerEntry := float64(stored.SizeBytes()) / float64(n)
			loadFactor := 0.0
			if lf, ok := stored.(membership.LoadFactorer); ok {
				loadFactor = lf.LoadFactor()
			}

			// Realized false-positive rate through each backend's native
			// probe (the delete-aware path for cuckoo, not the monotone
			// query view).
			falsePos := 0
			for i := 0; i < fpProbes; i++ {
				id := (rng.Uint64()%(M/2))*2 + 1
				hit, err := db.Contains(key, id)
				if err != nil {
					return nil, err
				}
				if hit {
					falsePos++
				}
			}
			fpRate := float64(falsePos) / float64(fpProbes)

			for _, wf := range mixes {
				opRng := c.rng(uint64(n)*131 + uint64(len(kind))*17 + uint64(wf*100))
				// Best of three repetitions: wall-clock throughput on a
				// shared machine is noisy, and transient slowdowns only
				// ever subtract — the max is the robust estimator.
				var bestSamples, bestOps float64
				nextSwap := 0
				for rep := 0; rep < 3; rep++ {
					samples, writes := 0, 0
					start := time.Now()
					for op := 0; op < c.Rounds; op++ {
						if wf > 0 && opRng.Float64() < wf {
							if dynamic {
								// Swap one member for a fresh id (insert
								// then remove the displaced member),
								// keeping occupancy and the fp design
								// point fixed.
								id := (opRng.Uint64() % (M / 2)) * 2
								if seen[id] {
									continue
								}
								if err := db.AddDynamic(key, id); err != nil {
									return nil, err
								}
								out := members[nextSwap%len(members)]
								if err := db.RemoveDynamic(key, out); err != nil {
									return nil, err
								}
								seen[id] = true
								members[nextSwap%len(members)] = id
								nextSwap++
							} else {
								if err := db.Add(key, (opRng.Uint64()%(M/2))*2); err != nil {
									return nil, err
								}
							}
							writes++
							continue
						}
						if _, err := db.Sample(key, opRng, nil); err != nil && !errors.Is(err, core.ErrNoSample) {
							return nil, err
						}
						samples++
					}
					elapsed := time.Since(start).Seconds()
					if elapsed <= 0 {
						elapsed = 1e-9
					}
					if s := float64(samples) / elapsed; s > bestSamples {
						bestSamples = s
					}
					if o := float64(samples+writes) / elapsed; o > bestOps {
						bestOps = o
					}
				}
				tbl.Add(string(kind), strconv.Itoa(n), fmt.Sprintf("%.1f", wf),
					fmt.Sprintf("%.2f", bytesPerEntry),
					fmt.Sprintf("%.2f", bytesPerEntry*8),
					fmt.Sprintf("%.2f", loadFactor),
					fmt.Sprintf("%.5f", fpRate),
					fmt.Sprintf("%.0f", bestSamples),
					fmt.Sprintf("%.0f", bestOps))
			}
		}
	}
	return []*Table{tbl}, nil
}

// BackendSummary condenses a backend run into the two acceptance
// figures: cuckoo-vs-counting bytes per entry (both at the same planned
// false-positive point) and cuckoo-vs-bloom read-only sampling
// throughput. The second return is false when the tables are not a
// backend run.
func BackendSummary(tables []*Table) (string, bool) {
	for _, t := range tables {
		if t.ID != "backend" {
			continue
		}
		col := map[string]int{}
		for i, c := range t.Columns {
			col[c] = i
		}
		means := map[string]struct {
			bytes, tput float64
			n           int
		}{}
		for _, row := range t.Rows {
			if row[col["writefrac"]] != "0.0" {
				continue
			}
			b, err1 := strconv.ParseFloat(row[col["bytes_per_entry"]], 64)
			s, err2 := strconv.ParseFloat(row[col["samples_per_sec"]], 64)
			if err1 != nil || err2 != nil {
				continue
			}
			m := means[row[col["backend"]]]
			m.bytes += b
			m.tput += s
			m.n++
			means[row[col["backend"]]] = m
		}
		bl, ct, ck := means["bloom"], means["counting"], means["cuckoo"]
		if bl.n == 0 || ct.n == 0 || ck.n == 0 {
			return "", false
		}
		return fmt.Sprintf(
			"backend: mean bytes/entry: bloom %.1f, counting %.1f, cuckoo %.1f (%.1fx below counting); read-only sampling: cuckoo at %.0f%% of bloom throughput",
			bl.bytes/float64(bl.n), ct.bytes/float64(ct.n), ck.bytes/float64(ck.n),
			(ct.bytes/float64(ct.n))/(ck.bytes/float64(ck.n)),
			100*(ck.tput/float64(ck.n))/(bl.tput/float64(bl.n))), true
	}
	return "", false
}
