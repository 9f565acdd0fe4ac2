package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"
)

// FuzzDecodeJSONRequest throws arbitrary bytes at decodeJSON, the single
// strict decoder behind every JSON endpoint, with the request types that
// have the most shape to get wrong. The properties: never panic; a
// rejection is a 400 (the 413 belongs to the size-limited reader, not to
// the bytes); and strictness is real — whatever is accepted is one JSON
// value with nothing after it and no field the type does not have, so
// encoding the decoded request and decoding that again yields the same
// request.
func FuzzDecodeJSONRequest(f *testing.F) {
	f.Add([]byte(`{"key":"plain","n":10,"workers":2,"uniform":true}`))
	f.Add([]byte(`{"key":"d","ids":[1,2,3],"dynamic":true}`))
	f.Add([]byte(`{"sets":[{"key":"a","ids":[1]},{"key":"b","ids":[],"dynamic":true}]}`))
	f.Add([]byte(`{"key":`))                                    // truncated
	f.Add([]byte(`{"key":"a","ids":[1]}{"key":"b","ids":[2]}`)) // trailing data
	f.Add([]byte(`{"key":"typo","ids":[1],"dynamc":true}`))     // unknown field
	f.Add([]byte(`{"key":"a","n":1e99}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() any{
			func() any { return new(SampleRequest) },
			func() any { return new(AddRequest) },
		} {
			req := fresh()
			err := decodeJSON(bytes.NewReader(data), req)
			if err != nil {
				var ae *apiError
				if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
					t.Fatalf("rejection is not a 400: %v", err)
				}
				continue
			}
			doc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("accepted request does not encode: %v", err)
			}
			again := fresh()
			if err := decodeJSON(bytes.NewReader(doc), again); err != nil {
				t.Fatalf("re-decoding %s: %v", doc, err)
			}
			// omitempty folds an empty list into an absent one; that is
			// the one difference a round trip may show.
			if a, ok := req.(*AddRequest); ok {
				if len(a.IDs) == 0 {
					a.IDs = nil
				}
				if len(a.Sets) == 0 {
					a.Sets = nil
				}
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("round trip changed the request: %+v → %s → %+v", req, doc, again)
			}
		}
	})
}
