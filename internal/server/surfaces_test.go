package server

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

// The two stats surfaces, /v1/stats and /metrics, are rendered from one
// document (stats() in ops.go). These tests hold them to each other, to the
// README's table of them, and to what the parent of the PR that merged their
// code served.

// liveSurfaces boots a WAL-backed server, gives it the traffic that makes
// every conditional series appear (a request, so the histograms render; a
// snapshot, so its age does), and returns the key paths of /v1/stats and
// the body of /metrics.
func liveSurfaces(t *testing.T) (doc map[string]any, metrics string) {
	t.Helper()
	ts, s, _ := newDurableTestServer(t, Config{})
	admin := httptest.NewServer(s.AdminHandler())
	t.Cleanup(admin.Close)
	for _, call := range [][2]string{
		{"/v1/add", `{"key":"demo","ids":[1,2,3,500,70000]}`},
		{"/v1/sample", `{"key":"demo","n":5}`},
		{"/v1/snapshot", ``},
	} {
		if code := post(t, ts, call[0], call[1], nil); code != 200 {
			t.Fatalf("%s: status %d", call[0], code)
		}
	}
	_, body := get(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	_, metrics = get(t, admin.URL+"/metrics")
	return doc, metrics
}

// leafPaths lists the dotted path of every leaf under v.
func leafPaths(v any, prefix string, out []string) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return append(out, prefix)
	}
	for k, child := range obj {
		path := k
		if prefix != "" {
			path = prefix + "." + k
		}
		out = leafPaths(child, path, out)
	}
	return out
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestSurfacesAreTheParents: testdata/stats_keys.txt and
// testdata/metrics_help_type.txt were captured from the binary of commit
// cd0fc32 (`bstserved -data-dir … -demo 100`, one sample, one snapshot),
// before setdb.DBStats took over server.DBStats and /metrics began to render
// from the stats document. Neither surface gained, lost or reworded a name
// then; a series added since is added to both lists by hand, in the PR that
// adds it (wire.served_inline / bst_wire_served_inline_total, PR 28), and one
// deleted is taken out of both the same way (the key map's shard, chunk and
// copy counters, deleted with the shards).
func TestSurfacesAreTheParents(t *testing.T) {
	doc, metrics := liveSurfaces(t)
	keys := leafPaths(doc, "", nil)
	sort.Strings(keys)
	if want := readLines(t, "testdata/stats_keys.txt"); !slices.Equal(keys, want) {
		t.Errorf("/v1/stats keys differ from the parent's:\n got %v\nwant %v", keys, want)
	}
	var meta []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "# ") {
			meta = append(meta, line)
		}
	}
	if want := readLines(t, "testdata/metrics_help_type.txt"); !slices.Equal(meta, want) {
		t.Errorf("/metrics # HELP / # TYPE lines differ from the parent's:\n got %s\nwant %s",
			strings.Join(meta, "\n"), strings.Join(want, "\n"))
	}
}

// statSections are the sections of /v1/stats whose numbers /metrics also
// serves, and the family prefix each renders under: a key is the family
// prefix + key, with _total appended when it is a counter.
var statSections = map[string]string{
	"db":         "bst_db_",
	"db.backend": "bst_backend_",
	"wire":       "bst_wire_",
	"durability": "bst_wal_",
}

// statRenames are the keys whose family is not the rule's.
var statRenames = map[string]string{
	"wire.in_flight":                        "bst_admission_in_flight", // {budget="global"}
	"wire.writes_in_flight":                 "bst_admission_in_flight", // {budget="write"}
	"wire.max_in_flight":                    "bst_admission_limit",     // {budget="global"}
	"wire.max_writes":                       "bst_admission_limit",     // {budget="write"}
	"durability.wal_bytes":                  "bst_wal_bytes",
	"durability.last_snapshot_unix":         "bst_wal_snapshot_age_seconds", // rendered as an age
	"durability.replayed_records_at_boot":   "bst_wal_replayed_records",
	"durability.dropped_tail_bytes_at_boot": "bst_wal_dropped_tail_bytes",
}

// statJSONOnly are the numbers /v1/stats serves and /metrics does not:
// configuration and layout summaries nobody alerts on.
var statJSONOnly = []string{
	"db.tree_depth",
	"wire.conn_window",
	"durability.active_segment", "durability.bytes_since_snapshot",
	"durability.last_snapshot_ms", "durability.last_snapshot_bytes",
	"durability.skipped_records_at_boot",
}

// TestEveryNumberOnBothSurfaces: a number in the db, wire or durability
// section of /v1/stats has its /metrics family under the one naming rule, or
// is listed above as renamed or JSON-only; a bst_db_*, bst_backend_*,
// bst_wire_* or bst_wal_* family has its key; and every pair README's table
// names exists on both. A counter added to one surface and forgotten on the
// other, or documented under a name neither serves, fails here.
func TestEveryNumberOnBothSurfaces(t *testing.T) {
	doc, metrics := liveSurfaces(t)
	families := map[string]bool{}
	for _, line := range strings.Split(metrics, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = true
		}
	}
	section := func(name string) map[string]any {
		var v any = doc
		for _, part := range strings.Split(name, ".") {
			v = v.(map[string]any)[part]
		}
		return v.(map[string]any)
	}

	claimed := map[string]bool{} // families some key accounts for
	for name, prefix := range statSections {
		for key, v := range section(name) {
			if _, numeric := v.(float64); !numeric {
				continue
			}
			path := name + "." + key
			family, renamed := statRenames[path]
			switch {
			case slices.Contains(statJSONOnly, path):
				if families[prefix+key] || families[prefix+key+"_total"] {
					t.Errorf("%s is listed as JSON-only and /metrics serves it", path)
				}
				continue
			case renamed:
			case families[prefix+key]:
				family = prefix + key
			default:
				family = prefix + key + "_total"
			}
			if !families[family] {
				t.Errorf("%s of /v1/stats has no family %s in /metrics and is not listed as renamed or JSON-only", path, family)
			}
			claimed[family] = true
		}
	}
	for family := range families {
		for _, prefix := range statSections {
			if strings.HasPrefix(family, prefix) && !claimed[family] {
				t.Errorf("family %s of /metrics has no key in /v1/stats", family)
			}
		}
	}
	for path := range statRenames {
		name, key, _ := strings.Cut(path, ".")
		if _, ok := section(name)[key]; !ok {
			t.Errorf("renamed key %s is not in /v1/stats", path)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `([a-z_.]+)` \\| `(bst_[a-z_]+)` \\|").FindAllStringSubmatch(string(readme), -1)
	if len(rows) < 7 {
		t.Fatalf("README's /v1/stats ↔ /metrics table has %d rows the test can read, want ≥ 7", len(rows))
	}
	for _, row := range rows {
		name, key := "db", row[1] // the table's keys are db.'s unless they name their section
		if n, k, dotted := strings.Cut(row[1], "."); dotted {
			name, key = n, k
		}
		if _, ok := section(name)[key]; !ok {
			t.Errorf("README names %s.%s, which /v1/stats does not serve", name, key)
		}
		if !families[row[2]] {
			t.Errorf("README names %s, which /metrics does not serve", row[2])
		}
	}
}

// wireOpcodes reads the opcode constants of internal/wire off its source,
// named as README names them: OpSampleStream is sample_stream, OpIDsResult
// ids_result.
func wireOpcodes(t *testing.T) map[string]int {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../wire/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	words := regexp.MustCompile(`([a-z])([A-Z])`)
	ops := map[string]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || len(spec.Values) != 1 || !strings.HasPrefix(spec.Names[0].Name, "Op") {
			return true
		}
		lit, ok := spec.Values[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("opcode %s is not a literal", spec.Names[0].Name)
		}
		code, err := strconv.Atoi(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		ops[strings.ToLower(words.ReplaceAllString(strings.TrimPrefix(spec.Names[0].Name, "Op"), "${1}_$2"))] = code
		return true
	})
	return ops
}

// TestEndpointsAndOpcodesInREADME holds README's endpoint table and its
// **Opcodes.** paragraph to the code, both ways, as TestFlagsOnEverySurface
// holds its flags: every method and path of the endpoint table is a row and
// there is no other; every opcode of internal/wire — every request opcode of
// the endpoint table among them, under its metrics name — is in the
// paragraph with its number, requests before responses, and nothing else is.
func TestEndpointsAndOpcodesInREADME(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)

	var routes []string
	for _, ep := range endpoints {
		if ep.get != nil {
			routes = append(routes, "GET "+ep.path)
		}
		if ep.post != nil {
			routes = append(routes, "POST "+ep.path)
		}
	}
	_, table, _ := strings.Cut(readme, "| Endpoint | Request | Response |\n| --- | --- | --- |\n")
	table, _, _ = strings.Cut(table, "\n\n")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([A-Z]+ /[^`]*)` \\|").FindAllStringSubmatch(table, -1) {
		rows = append(rows, m[1])
	}
	if len(rows) != strings.Count(table, "\n")+1 {
		t.Fatalf("README's endpoint table has %d lines and %d rows the test can read:\n%s", strings.Count(table, "\n")+1, len(rows), table)
	}
	slices.Sort(routes)
	slices.Sort(rows)
	if !slices.Equal(rows, routes) {
		t.Errorf("README's endpoint table lists %v; the endpoint table serves %v", rows, routes)
	}

	_, para, _ := strings.Cut(readme, "**Opcodes.**")
	para, _, _ = strings.Cut(para, "\n\n")
	requests, responses, _ := strings.Cut(para, "Responses:")
	entry := regexp.MustCompile("`([a-z_]+)` \\((\\d+)")
	listed := map[string]int{}
	for side, text := range map[bool]string{false: requests, true: responses} {
		for _, m := range entry.FindAllStringSubmatch(text, -1) {
			code, _ := strconv.Atoi(m[2])
			if _, twice := listed[m[1]]; twice {
				t.Errorf("README lists opcode %s twice", m[1])
			}
			listed[m[1]] = code
			if isResponse := code >= int(wire.OpSampleResult); isResponse != side {
				t.Errorf("README lists %s (%d) on the wrong side of Responses:", m[1], code)
			}
		}
	}
	ops := wireOpcodes(t)
	if len(ops) < 19 {
		t.Fatalf("read %d opcodes off internal/wire: %v", len(ops), ops)
	}
	if !maps.Equal(listed, ops) {
		t.Errorf("README's opcodes are %v; internal/wire's are %v", listed, ops)
	}
	for _, ep := range endpoints {
		if name := strings.TrimPrefix(ep.bin, "bin:"); listed[name] != int(ep.opcode) {
			t.Errorf("endpoint %s has opcode %d; README lists %s as %d", ep.bin, ep.opcode, name, listed[name])
		}
	}
}
