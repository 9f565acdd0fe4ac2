package bloomsample

import (
	"repro/internal/bloom"
	"repro/internal/setdb"
)

// Error taxonomy. Every sentinel an operation can wrap is re-exported
// here so callers never import internal packages to errors.Is against
// them. The served layers map the same sentinels onto response codes —
// one taxonomy across the library, HTTP/JSON and the binary wire
// protocol (whose OpError code field reuses the HTTP status numbers):
//
//	ErrNoSet                            → 404 Not Found
//	ErrKeyClash, ErrNotMember           → 409 Conflict
//	ErrOutOfRange                       → 400 Bad Request
//	anything else                       → 500 Internal Server Error
//
// ErrNoSample and ErrIncompatible never cross the server boundary:
// ErrNoSample is a per-draw outcome the batch endpoints simply skip,
// and incompatible filters cannot be constructed through a database.
var (
	// ErrNoSet is wrapped by the error every SetDB query or removal
	// returns for an absent key.
	ErrNoSet = setdb.ErrNoSet

	// ErrKeyClash is wrapped by a SetDB add that names the other kind
	// than the key was created with (a key holds a plain set or a
	// removable one for its whole lifetime).
	ErrKeyClash = setdb.ErrKeyClash

	// ErrOutOfRange is wrapped by SetDB writes carrying an id outside
	// the database namespace — a caller mistake, not an internal
	// failure.
	ErrOutOfRange = setdb.ErrOutOfRange

	// ErrNotMember is wrapped by dynamic removals of an id that is not
	// currently a member; the set is left unchanged (removals are
	// all-or-nothing).
	ErrNotMember = bloom.ErrNotMember

	// ErrIncompatible is returned by filter compositions (union,
	// intersection, estimators) over filters with different parameters.
	ErrIncompatible = bloom.ErrIncompatible
)
