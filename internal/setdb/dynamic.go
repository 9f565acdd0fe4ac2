package setdb

import "repro/internal/bloom"

// Names from when removable sets had a key space of their own. The frozen
// benchmark (bench/) still compiles against them; each forwards to the
// method that now serves every key, and goes the next time bench/ is open.

// ContainsDynamic is Contains.
//
// Deprecated: kept for bench/.
func (db *DB) ContainsDynamic(key string, id uint64) (bool, error) { return db.Contains(key, id) }

// SnapshotDynamic is Filter with an error wrapping ErrNoSet in place of nil.
//
// Deprecated: kept for bench/.
func (db *DB) SnapshotDynamic(key string) (*bloom.Filter, error) {
	e, err := db.get(key)
	if err != nil {
		return nil, err
	}
	return e.m.QueryView(), nil
}

// DynamicKeys returns the keys of the removable sets in sorted order.
//
// Deprecated: kept for bench/; use Keys.
func (db *DB) DynamicKeys() []string {
	_, dynamic := db.SnapshotView().keys()
	return dynamic
}
