package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/refmatch"
	"repro/pkg/rapclient"
)

// canned answers every request with 200 and the same body, so a fuzz
// iteration drives rapclient's real response path without a socket.
type canned []byte

func (c canned) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(c))}, nil
}

// FuzzMatchCodecDifferential pins the two halves of the match codec to
// encoding/json. Decoder: for arbitrary response bytes, rapclient's Scan
// and Feed return what json.Unmarshal makes of them into the same type,
// and fail exactly when it fails. Encoder: for arbitrary matches (raw is
// read as little-endian int64 pairs, so negative and MaxInt64 values
// occur), appendMatchBody writes json.Marshal's bytes plus the newline,
// and the client reads them back.
func FuzzMatchCodecDifferential(f *testing.F) {
	pair := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	for _, seed := range []string{
		"{\"count\":2,\"matches\":[{\"pattern\":0,\"end\":6},{\"pattern\":1,\"end\":16}]}\n",
		"{\"count\":0,\"matches\":[]}\n",
		"{\"count\":2,\"offset\":11,\"matches\":[{\"pattern\":0,\"end\":2},{\"pattern\":1,\"end\":10}]}\n",
		`{"count":1,"matches":[{"pattern":-3,"end":9223372036854775807}]}`,
		// Equivalent JSON the single pass must leave to encoding/json.
		`{ "count": 1, "matches": [ { "pattern": 4, "end": 5 } ] }`,
		`{"matches":[{"end":5,"pattern":4}],"count":1}`,
		`{"count":1,"matches":[{"pattern":4,"end":5,"rule":"x"}],"took_us":12}`,
		`{"count":1,"matches":null}`,
		`{"count":-0,"matches":[]}`,
		`{"count":1e2,"matches":[]}`,
		// Malformed: both sides must refuse.
		`{"count":01,"matches":[]}`,
		`{"count":1,"matches":[{"pattern":4,"end":5},]}`,
		`{"count":1,"matches":[{"pattern":4,"end":5}]}}`,
		`{"count":99999999999999999999,"matches":[]}`,
		`{"count":4000000000000,"matches":[]}`,
		"",
	} {
		f.Add([]byte(seed), pair(0, 6, 1, 16), int64(11))
	}
	f.Add([]byte("{}"), pair(-1, math.MaxInt64, math.MinInt64, 0), int64(math.MaxInt64))

	ctx := context.Background()
	decode := func(body []byte) (*rapclient.ScanResult, *rapclient.FeedResult, error, error) {
		cl := rapclient.New("http://codec.test", rapclient.WithHTTPClient(&http.Client{Transport: canned(body)}), rapclient.WithRetries(0))
		scan, serr := cl.Scan(ctx, "p", nil)
		feed, ferr := cl.Session("s", "p").Feed(ctx, nil)
		return scan, feed, serr, ferr
	}
	f.Fuzz(func(t *testing.T, body, raw []byte, offset int64) {
		scan, feed, serr, ferr := decode(body)
		var wantScan rapclient.ScanResult
		if werr := json.Unmarshal(body, &wantScan); (werr != nil) != (serr != nil) {
			t.Fatalf("scan of %q: client error %v, encoding/json error %v", body, serr, werr)
		} else if werr == nil && !reflect.DeepEqual(*scan, wantScan) {
			t.Fatalf("scan of %q: client %+v, encoding/json %+v", body, *scan, wantScan)
		}
		var wantFeed rapclient.FeedResult
		if werr := json.Unmarshal(body, &wantFeed); (werr != nil) != (ferr != nil) {
			t.Fatalf("feed of %q: client error %v, encoding/json error %v", body, ferr, werr)
		} else if werr == nil && !reflect.DeepEqual(*feed, wantFeed) {
			t.Fatalf("feed of %q: client %+v, encoding/json %+v", body, *feed, wantFeed)
		}

		ms := make([]refmatch.Match, len(raw)/16)
		sent := rapclient.FeedResult{Count: len(ms), Offset: int(offset), Matches: make([]rapclient.Match, len(ms))}
		for i := range ms {
			ms[i].Pattern = int(int64(binary.LittleEndian.Uint64(raw[16*i:])))
			ms[i].End = int(int64(binary.LittleEndian.Uint64(raw[16*i+8:])))
			sent.Matches[i] = rapclient.Match{Pattern: ms[i].Pattern, End: ms[i].End}
		}
		sentScan := rapclient.ScanResult{Count: sent.Count, Matches: sent.Matches}
		want, _ := json.Marshal(sentScan)
		got := appendMatchBody(nil, -1, ms)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("scan body %q, encoding/json writes %q", got, want)
		}
		if scan, _, err, _ := decode(got); err != nil || !reflect.DeepEqual(*scan, sentScan) {
			t.Fatalf("scan body %q read back as %+v, %v", got, scan, err)
		}
		if offset < 0 {
			return // a stream position is never negative; below zero appendMatchBody writes the scan body
		}
		want, _ = json.Marshal(sent)
		got = appendMatchBody(nil, int(offset), ms)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("feed body %q, encoding/json writes %q", got, want)
		}
		if _, feed, _, err := decode(got); err != nil || !reflect.DeepEqual(*feed, sent) {
			t.Fatalf("feed body %q read back as %+v, %v", got, feed, err)
		}
	})
}

// TestScanWireGolden holds the scan and feed responses to the bytes and
// headers recorded at the commit before appendMatchBody, when
// json.NewEncoder wrote them — and a response past net/http's 4 KiB
// buffer, chunked then, to the same body with its length declared.
func TestScanWireGolden(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	prog, _, err := svc.Compile(context.Background(), []string{"cat", "dog", "end$", "z"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := svc.OpenSession(context.Background(), prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, data string) string {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/octet-stream", strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" ||
			resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: status %d, Content-Type %q, Content-Length %q for %d bytes, Transfer-Encoding %v",
				path, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"), len(body), resp.TransferEncoding)
		}
		return string(body)
	}
	for _, tc := range []struct{ path, data, want string }{
		{"/v1/programs/" + prog.ID + "/scan", "the cat saw a dog",
			"{\"count\":2,\"matches\":[{\"pattern\":0,\"end\":6},{\"pattern\":1,\"end\":16}]}\n"},
		{"/v1/programs/" + prog.ID + "/scan", "nothing",
			"{\"count\":0,\"matches\":[]}\n"},
		{"/v1/sessions/" + sid + "/data", "ca",
			"{\"count\":0,\"offset\":2,\"matches\":[]}\n"},
		{"/v1/sessions/" + sid + "/data", "t and dog",
			"{\"count\":2,\"offset\":11,\"matches\":[{\"pattern\":0,\"end\":2},{\"pattern\":1,\"end\":10}]}\n"},
	} {
		if got := post(tc.path, tc.data); got != tc.want {
			t.Errorf("%s %q:\n got %q\nwant %q", tc.path, tc.data, got, tc.want)
		}
	}
	got := post("/v1/programs/"+prog.ID+"/scan", strings.Repeat("z", 400))
	var want scanResponse
	for i := 0; i < 400; i++ { // End is the index of the match's last byte
		want.Matches = append(want.Matches, matchJSON{Pattern: 3, End: i})
	}
	want.Count = len(want.Matches)
	if b, _ := json.Marshal(want); got != string(b)+"\n" || len(got) < 8<<10 {
		t.Errorf("400-match scan: %d bytes\n got %.120q...\nwant %.120q...", len(got), got, b)
	}
}

// TestFeedOffsetConcurrent: feeds of one session sent from several
// goroutines each report the stream offset as their own chunk left it —
// distinct multiples of the chunk length — not the position some other
// feed had reached by the time the handler asked.
func TestFeedOffsetConcurrent(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 256})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx := context.Background()
	cl := rapclient.New(srv.URL, rapclient.WithRetries(0))
	prog, err := cl.Compile(ctx, []string{"cat"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cl.OpenSession(ctx, prog.ID)
	if err != nil {
		t.Fatal(err)
	}
	const workers, feeds = 4, 16
	chunk := []byte("a cat, ")
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < feeds; i++ {
				res, err := sess.Feed(ctx, chunk)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if res.Offset <= 0 || res.Offset%len(chunk) != 0 || seen[res.Offset] {
					t.Errorf("feed reported offset %d: want a multiple of %d no other feed reported", res.Offset, len(chunk))
				}
				seen[res.Offset] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if closed, err := sess.Close(ctx); err != nil || closed.Summary.Bytes != int64(workers*feeds*len(chunk)) {
		t.Errorf("close: %+v, %v", closed, err)
	}
}

// TestWriteJSONEncodeFailure: a value encoding/json refuses is answered
// 500 with the error body, not 200 with none.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, UpdateResult{EnergyPJ: math.NaN()})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(e.Error, "NaN") || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("status %d, Content-Length %q, body %q (%v)", rec.Code, rec.Header().Get("Content-Length"), rec.Body, err)
	}
}
