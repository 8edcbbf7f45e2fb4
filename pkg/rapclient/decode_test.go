package rapclient

import "testing"

// TestDecodeClampsCount: count sizes the match list only as far as the
// body can back it. A canonical body that claims four trillion matches
// over an empty list, or over two, allocates at most one list, with room
// for no more matches than its bytes could hold.
func TestDecodeClampsCount(t *testing.T) {
	for _, body := range [][]byte{
		[]byte("{\"count\":4000000000000,\"matches\":[]}\n"),
		[]byte("{\"count\":4000000000000,\"matches\":[{\"pattern\":1,\"end\":2},{\"pattern\":3,\"end\":4}]}\n"),
	} {
		var res ScanResult
		var err error
		// The mean over many decodes, so another goroutine's allocations
		// do not count; the capacity says what the one allocation holds.
		allocs := testing.AllocsPerRun(1000, func() {
			res = ScanResult{}
			err = decodeMatches(body, &res)
		})
		if err != nil || res.Count != 4000000000000 {
			t.Fatalf("%q: %+v, %v", body, res, err)
		}
		if allocs > 1 || cap(res.Matches) > len(body)/21 {
			t.Errorf("%q: decoding made %v allocations and a list of capacity %d for a body of %d bytes", body, allocs, cap(res.Matches), len(body))
		}
		if res.Matches == nil {
			t.Errorf("%q: nil match list; encoding/json gives an empty one", body)
		}
	}
}
