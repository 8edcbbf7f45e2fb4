package rapclient

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// bodies recycles the buffers scan and feed responses are read into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody decodes a 2xx body into out: a scan or feed result is read
// whole into a pooled buffer for decodeMatches, any other response is
// encoding/json's, off the stream.
func decodeBody(body io.Reader, out any) error {
	switch out.(type) {
	case *ScanResult, *FeedResult:
		buf := bodies.Get().(*bytes.Buffer)
		buf.Reset()
		_, err := buf.ReadFrom(body)
		if err == nil {
			err = decodeMatches(buf.Bytes(), out)
		}
		if buf.Cap() <= 1<<20 { // a larger one is freed, not pinned
			bodies.Put(buf)
		}
		return err
	}
	return json.NewDecoder(body).Decode(out)
}

// decodeMatches fills out, a *ScanResult or *FeedResult, from b. The
// canonical form (package comment) is parsed in one pass with one
// allocation; on any other bytes encoding/json decides, result and error
// alike. Nothing but b selects the path.
func decodeMatches(b []byte, out any) error {
	feed, isFeed := out.(*FeedResult)
	c := cursor{b: b}
	var offset int
	c.lit(`{"count":`)
	count := c.num()
	if isFeed {
		c.lit(`,"offset":`)
		offset = c.num()
	}
	c.lit(`,"matches":[`)
	// count sizes the list, up to what the bytes left could hold at 21 a
	// match: a count the body cannot back allocates nothing.
	ms := make([]Match, 0, max(0, min(count, len(c.b)/21)))
	for first := true; !c.bad && len(c.b) > 0 && c.b[0] != ']'; first = false {
		if !first {
			c.lit(",")
		}
		var m Match
		c.lit(`{"pattern":`)
		m.Pattern = c.num()
		c.lit(`,"end":`)
		m.End = c.num()
		c.lit("}")
		ms = append(ms, m)
	}
	c.lit("]}")
	if c.bad || (len(c.b) != 0 && string(c.b) != "\n") {
		return json.Unmarshal(b, out)
	}
	if isFeed {
		*feed = FeedResult{Count: count, Offset: offset, Matches: ms}
	} else {
		*out.(*ScanResult) = ScanResult{Count: count, Matches: ms}
	}
	return nil
}

// cursor consumes canonical bytes off the front of b; the first
// departure sets bad, and every step after it does nothing.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) lit(s string) {
	if c.bad || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		c.bad = true
		return
	}
	c.b = c.b[len(s):]
}

// num consumes an integer as encoding/json writes one: an optional '-',
// then 1 to 18 digits (nothing to overflow; a longer one is left to
// encoding/json), the first of them 0 only in "0" itself.
func (c *cursor) num() int {
	i := 0
	if len(c.b) > 0 && c.b[0] == '-' {
		i = 1
	}
	start := i
	var v int64
	for ; i < len(c.b) && i-start < 19 && c.b[i]-'0' <= 9; i++ {
		v = v*10 + int64(c.b[i]-'0')
	}
	n := i - start
	if c.bad || n == 0 || n > 18 || (c.b[start] == '0' && i > 1) || int64(int(v)) != v {
		c.bad = true
		return 0
	}
	c.b = c.b[i:]
	if start == 1 {
		v = -v
	}
	return int(v)
}
