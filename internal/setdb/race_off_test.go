//go:build !race

package setdb

const raceEnabled = false
