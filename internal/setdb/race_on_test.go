//go:build race

package setdb

// raceEnabled reports whether the race detector is instrumenting this
// test binary (sync.Pool deliberately drops puts under it, which breaks
// allocation-count pinning of pooled paths).
const raceEnabled = true
