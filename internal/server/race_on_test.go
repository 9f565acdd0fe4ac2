//go:build race

package server

// raceEnabled reports whether the race detector is instrumenting this
// test binary (sync.Pool deliberately drops puts under it, which breaks
// exact allocation counts).
const raceEnabled = true
