// Command bstcli is an interactive shell around the bloomsample library:
// build a BloomSampleTree, store sets in Bloom filters, sample from them
// and reconstruct them. Useful for exploring the accuracy/runtime
// behaviour at arbitrary parameters.
//
// Usage:
//
//	bstcli -M 1000000 -acc 0.9 -n 1000
//
// Commands (type 'help' inside the shell):
//
//	add <id> <x1> <x2> ...   add elements to filter <id> (created on demand)
//	addrange <id> <lo> <hi>  add [lo,hi) to filter <id>
//	sample <id> [r]          draw r samples (default 1)
//	reconstruct <id> [exact] reconstruct; 'exact' uses AND-bit pruning
//	estimate <id> <id2>      estimate the intersection size of two filters
//	info [id]                tree parameters, or filter stats
//	quit
//
// Subcommands (non-interactive):
//
//	bstcli stats [-addr http://127.0.0.1:8080]
//	    fetch /v1/stats from a running bstserved and print it as a
//	    compact table: uptime, database, wire and durability state,
//	    plus per-endpoint latency percentiles.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	bloomsample "repro"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	var (
		M    = flag.Uint64("M", 1_000_000, "namespace size")
		acc  = flag.Float64("acc", 0.9, "desired sampling accuracy")
		n    = flag.Uint64("n", 1000, "design query-set size")
		k    = flag.Int("k", 3, "hash functions")
		seed = flag.Uint64("seed", 42, "hash seed")
		hash = flag.String("hash", string(bloomsample.Fast), "hash family")
	)
	flag.Parse()

	plan, err := bloomsample.Plan(*acc, *n, *M, *k)
	if err != nil {
		fatalf("plan: %v", err)
	}
	tree, err := bloomsample.NewTreeWith(plan, bloomsample.WithHash(bloomsample.HashKind(*hash)), bloomsample.WithSeed(*seed))
	if err != nil {
		fatalf("build: %v", err)
	}
	fmt.Printf("BloomSampleTree ready: M=%d m=%d bits k=%d depth=%d leaf=%d memory=%.2f MB\n",
		*M, plan.Bits, *k, plan.Depth, plan.LeafRange,
		float64(tree.MemoryBytes())/(1<<20))

	filters := map[string]*bloomsample.Filter{}
	get := func(id string) *bloomsample.Filter {
		if f, ok := filters[id]; ok {
			return f
		}
		f := tree.NewQueryFilter()
		filters[id] = f
		return f
	}
	rng := rand.New(rand.NewSource(int64(*seed)))

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch cmd := fields[0]; cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("commands: add addrange sample reconstruct estimate info quit")
		case "add":
			if len(fields) < 3 {
				fmt.Println("usage: add <id> <x>...")
				break
			}
			f := get(fields[1])
			for _, s := range fields[2:] {
				x, err := strconv.ParseUint(s, 10, 64)
				if err != nil || x >= *M {
					fmt.Printf("bad element %q\n", s)
					continue
				}
				f.Add(x)
			}
			fmt.Printf("filter %s: %d insertions, fill %.4f\n", fields[1], f.Insertions(), f.FillRatio())
		case "addrange":
			if len(fields) != 4 {
				fmt.Println("usage: addrange <id> <lo> <hi>")
				break
			}
			lo, err1 := strconv.ParseUint(fields[2], 10, 64)
			hi, err2 := strconv.ParseUint(fields[3], 10, 64)
			if err1 != nil || err2 != nil || lo >= hi || hi > *M {
				fmt.Println("bad range")
				break
			}
			f := get(fields[1])
			for x := lo; x < hi; x++ {
				f.Add(x)
			}
			fmt.Printf("filter %s: %d insertions\n", fields[1], f.Insertions())
		case "sample":
			if len(fields) < 2 {
				fmt.Println("usage: sample <id> [r]")
				break
			}
			f, ok := filters[fields[1]]
			if !ok {
				fmt.Println("no such filter")
				break
			}
			r := 1
			if len(fields) > 2 {
				r, _ = strconv.Atoi(fields[2])
			}
			var ops bloomsample.Ops
			got, err := tree.SampleN(f, r, true, rng, &ops)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("samples: %v\nops: %s\n", got, ops.String())
		case "reconstruct":
			if len(fields) < 2 {
				fmt.Println("usage: reconstruct <id> [exact]")
				break
			}
			f, ok := filters[fields[1]]
			if !ok {
				fmt.Println("no such filter")
				break
			}
			rule := bloomsample.PruneByEstimate
			if len(fields) > 2 && fields[2] == "exact" {
				rule = bloomsample.PruneByAndBits
			}
			var ops bloomsample.Ops
			got, err := tree.Reconstruct(f, rule, &ops)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if len(got) > 50 {
				fmt.Printf("%d elements (first 50): %v...\n", len(got), got[:50])
			} else {
				fmt.Printf("%d elements: %v\n", len(got), got)
			}
			fmt.Println("ops:", ops.String())
		case "estimate":
			if len(fields) != 3 {
				fmt.Println("usage: estimate <id> <id2>")
				break
			}
			a, ok1 := filters[fields[1]]
			b, ok2 := filters[fields[2]]
			if !ok1 || !ok2 {
				fmt.Println("no such filter")
				break
			}
			fmt.Printf("estimated |A∩B| = %.2f\n", bloomsample.EstimateIntersection(a, b))
		case "info":
			if len(fields) > 1 {
				f, ok := filters[fields[1]]
				if !ok {
					fmt.Println("no such filter")
					break
				}
				fmt.Printf("insertions=%d set_bits=%d fill=%.4f est_cardinality=%.1f\n",
					f.Insertions(), f.SetBits(), f.FillRatio(), f.EstimateCardinality())
			} else {
				fmt.Printf("M=%d depth=%d leaf=%d nodes=%d memory=%.2fMB filters=%d\n",
					tree.Namespace(), tree.Depth(), tree.LeafRange(), tree.Nodes(),
					float64(tree.MemoryBytes())/(1<<20), len(filters))
			}
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
		fmt.Print("> ")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bstcli: "+format+"\n", args...)
	os.Exit(1)
}
