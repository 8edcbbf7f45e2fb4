package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/input"
	"repro/internal/refmatch"
)

// wireBufs recycles response bodies (a 256-match scan response is 7 KB);
// one past 64 KiB is freed instead of pinned.
var wireBufs = input.NewPool(4<<10, 64<<10)

// appendMatchBody appends the scan response body or, with offset >= 0,
// the feed one, in the canonical form json.NewEncoder gave the structs it
// replaces: {"count":N[,"offset":O],"matches":[{"pattern":P,"end":E},...]}
// and a newline. pkg/rapclient reads exactly these bytes in one pass and
// anything else through encoding/json, so the two change together
// (FuzzMatchCodecDifferential, TestScanWireGolden).
func appendMatchBody(b []byte, offset int, ms []refmatch.Match) []byte {
	b = strconv.AppendInt(append(b, `{"count":`...), int64(len(ms)), 10)
	if offset >= 0 {
		b = strconv.AppendInt(append(b, `,"offset":`...), int64(offset), 10)
	}
	b = append(b, `,"matches":[`...)
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"pattern":`...), int64(m.Pattern), 10)
		b = strconv.AppendInt(append(b, `,"end":`...), int64(m.End), 10)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// writeBody sends a complete JSON body with its length, so one larger
// than net/http's 4 KiB write buffer still leaves unchunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status is out; a client that has gone has nothing to be told
}

// writeJSON encodes v before it commits the status: a value that cannot
// be encoded (a NaN in a stats float or an update's modeled cost) is a
// 500 with the {"error": ...} body, not a 200 with none.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf := bytes.NewBuffer(wireBufs.Get())
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(errorResponse{Error: "encode response: " + err.Error()}) // a string always encodes
	}
	writeBody(w, status, buf.Bytes())
	wireBufs.Put(buf.Bytes())
}
