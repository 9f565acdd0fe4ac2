package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/server"
)

// runStats implements `bstcli stats`: fetch GET /v1/stats from a
// running bstserved and render the document as aligned key/value
// sections plus a per-endpoint latency table — the human view of the
// same numbers /metrics exports for machines.
func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "bstserved base URL")
	_ = fs.Parse(args)

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(*addr + "/v1/stats")
	if err != nil {
		fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("stats: %s returned status %d", *addr, resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatalf("stats: decoding response: %v", err)
	}

	kv := func(rows ...[2]string) {
		width := 0
		for _, r := range rows {
			if len(r[0]) > width {
				width = len(r[0])
			}
		}
		for _, r := range rows {
			fmt.Printf("  %-*s  %s\n", width, r[0], r[1])
		}
	}
	num := func(v any) string { return fmt.Sprintf("%v", v) }

	fmt.Printf("server %s\n", *addr)
	kv(
		[2]string{"uptime", (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second).String()},
		[2]string{"namespace", num(st.Options.Namespace)},
		[2]string{"filter bits", num(st.Options.Bits)},
		[2]string{"hash", fmt.Sprintf("%s k=%d", st.Options.HashKind, st.Options.K)},
		[2]string{"tree depth", fmt.Sprintf("%d (pruned=%v)", st.Options.TreeDepth, st.Options.Pruned)},
	)

	fmt.Println("\ndatabase")
	kv(
		[2]string{"sets", fmt.Sprintf("%d (%d plain, %d dynamic)", st.DB.Sets+st.DB.DynamicSets, st.DB.Sets, st.DB.DynamicSets)},
		[2]string{"tree", fmt.Sprintf("%d nodes, %.1f MB", st.DB.TreeNodes, float64(st.DB.TreeMemoryBytes)/(1<<20))},
		[2]string{"writes", fmt.Sprintf("%d (%d publishes, %.0f B copied/write)", st.DB.StateWrites, st.DB.StatePublishes, st.DB.MeanBytesCopiedPerWrite)},
		[2]string{"sample draws lost", num(st.DB.SampleDrawsLost)},
		[2]string{"estimates", fmt.Sprintf("%d computed, %d remembered", st.DB.EstimatesComputed, st.DB.EstimatesRemembered)},
		[2]string{"draws", fmt.Sprintf("%d warm, %d descended", st.DB.DrawsWarm, st.DB.DrawsDescended)},
		[2]string{"positives", fmt.Sprintf("%d scans (%d declined), %d dropped, %d B packed", st.DB.PositivesScans, st.DB.PositivesDeclined, st.DB.PositivesDropped, st.DB.PositivesBytes)},
		[2]string{"generations", num(st.DB.Generations)},
		[2]string{"growth epoch", num(st.DB.GrowthEpoch)},
		[2]string{"backend", fmt.Sprintf("%s: %d entries, %.1f bits/entry", st.DB.Backend.Kind, st.DB.Backend.Entries, st.DB.Backend.BitsPerEntry)},
	)

	fmt.Println("\nwire")
	kv(
		[2]string{"connections", fmt.Sprintf("%d active / %d total", st.Wire.ConnsActive, st.Wire.ConnsTotal)},
		[2]string{"frames", fmt.Sprintf("%d in / %d out, %d served by their reader", st.Wire.FramesIn, st.Wire.FramesOut, st.Wire.ServedInline)},
		[2]string{"streams", fmt.Sprintf("%d active, %d credit stalls", st.Wire.StreamsActive, st.Wire.CreditStalls)},
		[2]string{"admission", fmt.Sprintf("%d/%d in flight, %d/%d writes, %d shed", st.Wire.InFlight, st.Wire.MaxInFlight, st.Wire.WritesInFlight, st.Wire.MaxWrites, st.Wire.Shed)},
		[2]string{"protocol errors", num(st.Wire.ProtocolErrors)},
	)

	if d := st.Durability; d != nil {
		fmt.Println("\ndurability")
		age := "never"
		if d.LastSnapshotUnix > 0 {
			age = time.Since(time.Unix(d.LastSnapshotUnix, 0)).Round(time.Second).String() + " ago"
		}
		kv(
			[2]string{"fsync policy", d.FsyncPolicy},
			[2]string{"log", fmt.Sprintf("%d segments, %.1f MB, seq %d", d.Segments, float64(d.WALBytes)/(1<<20), d.Seq)},
			[2]string{"appended", fmt.Sprintf("%d B, %d fsyncs (%d failed), %d rotations", d.AppendedBytes, d.Fsyncs, d.FsyncErrors, d.Rotations)},
			[2]string{"snapshots", fmt.Sprintf("%d (%d failed), last %s, covers seq %d", d.Snapshots, d.SnapshotErrors, age, d.LastSnapshotSeq)},
			[2]string{"since snapshot", fmt.Sprintf("%d records, %d B", d.RecordsSinceSnapshot, d.BytesSinceSnapshot)},
		)
	}

	if len(st.Endpoints) > 0 {
		fmt.Println("\nendpoints")
		names := make([]string, 0, len(st.Endpoints))
		width := len("endpoint")
		for name := range st.Endpoints {
			names = append(names, name)
			if len(name) > width {
				width = len(name)
			}
		}
		sort.Strings(names)
		fmt.Printf("  %-*s  %9s  %7s  %6s  %9s  %9s  %9s  %8s\n",
			width, "endpoint", "requests", "errors", "shed", "avg_us", "p50_us", "p99_us", "qps")
		for _, name := range names {
			e := st.Endpoints[name]
			fmt.Printf("  %-*s  %9d  %7d  %6d  %9.1f  %9.1f  %9.1f  %8.1f\n",
				width, name, e.Requests, e.Errors, e.Shed, e.AvgLatencyUS, e.P50LatencyUS, e.P99LatencyUS, e.QPS)
		}
	}
}
