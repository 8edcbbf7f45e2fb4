package input

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// MaxBody bounds every request body (32 MiB), on a serving node and on a
// cluster gateway alike: a gateway refuses what the serving node would.
const MaxBody = 32 << 20

// MaxConfig bounds a JSON config file (1 MiB), read whole before it is
// parsed.
const MaxConfig = 1 << 20

// DecodeConfig decodes the JSON config r holds into v: one value of at most
// MaxConfig bytes, with no field v lacks and nothing after it.
func DecodeConfig(r io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, MaxConfig+1))
	if err == nil && len(data) > MaxConfig {
		err = fmt.Errorf("config larger than %d bytes", MaxConfig)
	}
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bytes after the config")
	}
	return nil
}

// Bodies recycles the buffers ReadBody and ReadChunks hand out. It retains
// buffers up to 1 MiB: the occasional huge body read whole is freed
// instead of pinning its capacity for the life of the process.
var Bodies = NewPool(64<<10, 1<<20)

// LimitBody caps the request body at MaxBody as it is read. A body whose
// Content-Length is already over is refused before a byte of it is read:
// LimitBody answers 413 and reports false.
func LimitBody(w http.ResponseWriter, r *http.Request) bool {
	if r.ContentLength > MaxBody {
		refuse(w, http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: MaxBody})
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBody)
	return true
}

// ReadBody reads the whole request body into a pooled buffer under
// LimitBody, sized once from Content-Length when the client sent one and
// grown by doubling otherwise. On failure it answers 413 (over the limit)
// or 400 (ended early, or unreadable) and reports false. The caller must
// Bodies.Put the buffer once the bytes are no longer referenced.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if !LimitBody(w, r) {
		return nil, false
	}
	buf := Bodies.GetCap(int(r.ContentLength))
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		// A body of known length is complete at its last byte: the read
		// that reports io.EOF must not first grow an exactly sized buffer.
		if err == io.EOF || (err == nil && int64(len(buf)) == r.ContentLength) {
			if int64(len(buf)) >= r.ContentLength {
				return buf, true
			}
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			Bodies.Put(buf)
			refuseRead(w, err)
			return nil, false
		}
	}
}

// Chunks reads a request body one chunk at a time, every chunk into the
// same pooled buffer, so its reader holds one chunk, not the body. A
// chunk is the last unless it fills the buffer and a byte follows it:
// Next reads one byte ahead.
type Chunks struct {
	r      *idleReader
	buf    []byte
	length int64 // Content-Length, or -1
	read   int64 // bytes handed out in chunks
	peek   [1]byte
	peeked bool // peek holds the first byte of the next chunk
	err    error
}

// IdleReadTimeout is the longest a body read with ReadChunks may send
// nothing, as long as rapserve gives a request's headers: a client that
// stops mid-body is answered 400 instead of holding what its earlier
// chunks took, such as a queue slot. A client that sends slowly but keeps
// sending is never refused.
const IdleReadTimeout = 10 * time.Second

// ReadChunks starts reading r's body under LimitBody in chunks of at most
// size bytes, into a buffer no larger than the Content-Length, failing a
// read that waits idle longer than idle. A body LimitBody refuses is
// answered, and ReadChunks reports false. The caller must Close the
// Chunks.
func ReadChunks(w http.ResponseWriter, r *http.Request, size int, idle time.Duration) (*Chunks, bool) {
	if !LimitBody(w, r) {
		return nil, false
	}
	if r.ContentLength >= 0 {
		size = int(min(r.ContentLength, int64(size)))
	}
	return &Chunks{r: &idleReader{r: r.Body, rc: http.NewResponseController(w), idle: idle},
		buf: Bodies.GetCap(size)[:size], length: r.ContentLength}, true
}

// Next reads the next chunk and reports whether it is the body's last.
// The chunk is valid until the next call. On failure Refuse answers it.
func (c *Chunks) Next() (chunk []byte, last bool, err error) {
	chunk, last, err = c.next()
	if last || err != nil {
		// A deadline left armed would fail net/http's background read
		// while the scan still runs, and so cancel the request's context.
		c.r.deadline(time.Time{})
	}
	return chunk, last, err
}

// idleReader reads a request body under an idle limit: each read moves
// the connection's read deadline to idle from its start, so a read fails
// only when the client has sent nothing for that long.
type idleReader struct {
	r    io.Reader
	rc   *http.ResponseController
	idle time.Duration
}

func (r *idleReader) Read(p []byte) (int, error) {
	r.deadline(time.Now().Add(r.idle))
	return r.r.Read(p)
}

// deadline sets the connection's read deadline. A writer that has no
// connection, such as a recorder, returns http.ErrNotSupported; its
// reads cannot stall, so that is no failure.
func (r *idleReader) deadline(t time.Time) { _ = r.rc.SetReadDeadline(t) }

func (c *Chunks) next() (chunk []byte, last bool, err error) {
	n := 0
	if c.peeked {
		c.buf[0], n = c.peek[0], 1
	}
	m, err := io.ReadFull(c.r, c.buf[n:])
	n += m
	if err == nil {
		_, err = io.ReadFull(c.r, c.peek[:])
	}
	c.peeked = err == nil
	c.read += int64(n)
	switch {
	case c.peeked:
		return c.buf[:n], false, nil
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return c.fail(err)
	case c.length >= 0 && c.read != c.length:
		return c.fail(io.ErrUnexpectedEOF) // shorter than its Content-Length
	}
	return c.buf[:n], true, nil
}

func (c *Chunks) fail(err error) ([]byte, bool, error) {
	c.err = err
	return nil, false, err
}

// Refuse answers the read that failed as ReadBody does, 413 over the limit
// and 400 otherwise, and reports whether one had failed.
func (c *Chunks) Refuse(w http.ResponseWriter) bool {
	if c.err != nil {
		refuseRead(w, c.err)
	}
	return c.err != nil
}

// Close returns the buffer to Bodies; no chunk may be used after it.
func (c *Chunks) Close() { Bodies.Put(c.buf) }

// refuseRead answers a body that could not be read whole: 413 over the
// limit, 400 when it ended early or could not be read.
func refuseRead(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	refuse(w, status, fmt.Errorf("read request body: %w", err))
}

// refuse answers with the {"error": ...} body every /v1 error carries.
func refuse(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) // the status is out; nothing to add to it
}
