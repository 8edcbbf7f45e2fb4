package rapclient

import (
	"runtime"
	"testing"
)

// TestDecodeClampsCount: count sizes the match list only as far as the
// body can back it. A canonical body that claims four trillion matches
// over an empty list, or over two, allocates no more than its own length.
func TestDecodeClampsCount(t *testing.T) {
	for _, body := range [][]byte{
		[]byte("{\"count\":4000000000000,\"matches\":[]}\n"),
		[]byte("{\"count\":4000000000000,\"matches\":[{\"pattern\":1,\"end\":2},{\"pattern\":3,\"end\":4}]}\n"),
	} {
		var res ScanResult
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeMatches(body, &res)
		runtime.ReadMemStats(&after)
		if err != nil || res.Count != 4000000000000 {
			t.Fatalf("%q: %+v, %v", body, res, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(body)) {
			t.Errorf("%q: decoding allocated %d bytes for a body of %d", body, got, len(body))
		}
		if res.Matches == nil {
			t.Errorf("%q: nil match list; encoding/json gives an empty one", body)
		}
	}
}
