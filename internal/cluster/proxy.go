package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/input"
	"repro/internal/metrics"
	"repro/internal/service"
)

// buildMux assembles the node's HTTP surface: explicit handlers for the
// routed /v1 endpoints and the /cluster control plane, with everything
// else (stats, health, metrics, debug, legacy aliases) served by the
// embedded single-node service.
func (n *Node) buildMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", n.handleCompile)
	mux.HandleFunc("PUT /v1/programs/{id}", n.handleUpdate)
	mux.HandleFunc("POST /v1/programs/{id}/scan", n.handleScan)
	mux.HandleFunc("POST /v1/sessions", n.handleOpenSession)
	mux.HandleFunc("POST /v1/sessions/{id}/data", n.handleFeed)
	mux.HandleFunc("DELETE /v1/sessions/{id}", n.handleCloseSession)
	mux.HandleFunc("POST /cluster/gossip", n.handleGossip)
	mux.HandleFunc("GET /cluster/programs/{id}", n.handleProgramMeta)
	mux.HandleFunc("GET /cluster/members", n.handleMembers)
	mux.Handle("/", n.local)
	return mux
}

// proxyResp is a buffered upstream (or local) response, on the control
// plane only: scan and feed bodies go through send and relay.
type proxyResp struct {
	status int
	header http.Header
	body   []byte
}

func proxyError(status int, format string, args ...any) *proxyResp {
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	return &proxyResp{status: status, header: h, body: body}
}

func writeProxyResp(w http.ResponseWriter, resp *proxyResp) {
	for k, vs := range resp.header {
		// Content-Length is recomputed: rewrites may have changed the body.
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// capture is an in-memory http.ResponseWriter for serving the local
// handler chain on behalf of the proxy.
type capture struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func newCapture() *capture { return &capture{h: make(http.Header), status: http.StatusOK} }

func (c *capture) Header() http.Header         { return c.h }
func (c *capture) WriteHeader(status int)      { c.status = status }
func (c *capture) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *capture) resp() *proxyResp {
	return &proxyResp{status: c.status, header: c.h, body: c.buf.Bytes()}
}

// forwarded reports whether a peer already routed this request.
func forwarded(r *http.Request) bool { return r.Header.Get(ForwardedHeader) != "" }

// localRoundTrip serves a synthesized request against the local service
// and captures the response.
func (n *Node) localRoundTrip(ctx context.Context, method, path string, hdr http.Header, body []byte) *proxyResp {
	req, err := http.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
	if err != nil {
		return proxyError(http.StatusInternalServerError, "cluster: build local request: %v", err)
	}
	if hdr != nil {
		req.Header = hdr.Clone()
	}
	req.Header.Set(ForwardedHeader, n.cfg.ID)
	cw := newCapture()
	n.local.ServeHTTP(cw, req)
	return cw.resp()
}

// roundTrip routes one buffered control-plane request to target: served
// locally when target is this node, otherwise forwarded one hop.
func (n *Node) roundTrip(ctx context.Context, targetID, method, path string, hdr http.Header, body []byte) *proxyResp {
	if targetID == n.cfg.ID {
		return n.localRoundTrip(ctx, method, path, hdr, body)
	}
	resp, perr := n.send(ctx, targetID, method, path, hdr, bytes.NewReader(body), int64(len(body)))
	if perr != nil {
		return perr
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, input.MaxBody))
	if err != nil {
		return proxyError(http.StatusBadGateway, "cluster: read from %s: %v", targetID, err)
	}
	return &proxyResp{status: resp.StatusCode, header: resp.Header, body: respBody}
}

// timedBody closes a forward's rap_node_forward_duration_us observation
// where the forward ends: at the Close after the last response byte.
type timedBody struct {
	io.ReadCloser
	hist  *metrics.Histogram
	start time.Time
}

func (b *timedBody) Close() error {
	b.hist.Observe(time.Since(b.start))
	return b.ReadCloser.Close()
}

// send forwards one request to a peer (the ForwardedHeader makes the peer
// serve it locally, so routing disagreement can never loop). It returns the
// response, body unread, or the error to answer with when the peer could
// not be reached. size is the body's length, -1 when unknown.
func (n *Node) send(ctx context.Context, targetID, method, path string, hdr http.Header, body io.Reader, size int64) (*http.Response, *proxyResp) {
	m, ok := n.members.Get(targetID)
	if !ok || m.Addr == "" {
		return nil, proxyError(http.StatusBadGateway, "cluster: no address for node %s", targetID)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.Addr+path, body)
	if err != nil {
		return nil, proxyError(http.StatusInternalServerError, "cluster: build forward request: %v", err)
	}
	req.Header = hdr.Clone()
	req.Header.Set(ForwardedHeader, n.cfg.ID)
	req.ContentLength = size
	if b, ok := body.(*input.SharedReader); ok {
		req.GetBody = func() (io.ReadCloser, error) { return b.Again(), nil }
	}
	n.forwards.Inc()
	start := time.Now()
	resp, err := n.hc.Do(req)
	if err != nil {
		n.fwdTime[http.StatusBadGateway].Observe(time.Since(start))
		status := http.StatusBadGateway
		if errors.As(err, new(*http.MaxBytesError)) { // a streamed body ran over input.LimitBody
			status = http.StatusRequestEntityTooLarge
		}
		return nil, proxyError(status, "cluster: forward to %s: %v", targetID, err)
	}
	hist := n.fwdTime[resp.StatusCode]
	if hist == nil {
		hist = n.fwdTime[http.StatusOK]
	}
	resp.Body = &timedBody{resp.Body, hist, start}
	return resp, nil
}

// relay streams a peer's response to the client as it stands (its
// Content-Length too: the body is not rewritten) and closes it.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	buf := input.Bodies.Get()
	// The status is out, so a failed copy can only cut the response short.
	// The bare io.Writer hides http's ReaderFrom, which flushes the headers
	// in a packet of their own and copies through a fresh 32 KiB.
	_, _ = io.CopyBuffer(struct{ io.Writer }{w}, resp.Body, buf[:cap(buf)])
	input.Bodies.Put(buf)
}

// resident reports whether this node can serve program id, first repairing
// a missing one from gossiped catalog meta: compile the ID-defining
// original, hot-swap to the live ruleset. Repairing before serving, not
// after a 404, lets the terminal hop stream the body it is given; a scan
// routed to a replica that has not warmed yet costs one compile, no error.
func (n *Node) resident(ctx context.Context, id string) bool {
	if _, ok := n.svc.Program(id); ok {
		return true
	}
	meta, ok := n.catalog.Get(id)
	if !ok {
		return false
	}
	if err := n.ensureLocal(ctx, meta); err != nil {
		n.log.Warn("scan repair failed", "program", id, "err", err)
		return false
	}
	n.repairs.Inc()
	return true
}

// handleCompile routes POST /v1/programs to the program's ring owner.
// The content-hash ID is derived from the request body BEFORE compiling
// (service.ProgramKey), so placement needs no directory lookup and
// every node routes identically.
func (n *Node) handleCompile(w http.ResponseWriter, r *http.Request) {
	body, ok := input.ReadBody(w, r)
	if !ok {
		return
	}
	req, err := service.DecodeRuleset(body)
	if err != nil {
		// Malformed JSON: let the service produce its own diagnostics.
		writeProxyResp(w, n.localRoundTrip(r.Context(), http.MethodPost, "/v1/programs", r.Header, body))
		return
	}
	id := service.ProgramKey(req.Patterns, req.Options)
	target := n.cfg.ID
	if !forwarded(r) {
		target = n.routeOwner(id)
	}
	resp := n.roundTrip(r.Context(), target, http.MethodPost, "/v1/programs", r.Header, body)
	if resp.status < 300 && n.catalog.Put(ProgramMeta{
		ID:       id,
		Patterns: req.Patterns,
		Options:  req.Options,
		Replicas: n.cfg.Replicas,
	}) && !forwarded(r) {
		n.announce() // the gateway spreads a new program, not the owner it forwarded to
	}
	writeProxyResp(w, resp)
}

// handleScan fans POST /v1/programs/{id}/scan out over the program's
// live replicas round-robin, falling through 404/unreachable replicas
// and finally repairing locally from catalog meta. The terminal hop (a
// forwarded scan, or one whose first replica is this node) hands the
// untouched request and the client's own ResponseWriter to the embedded
// service; a gateway reads the body once and relays the answer.
func (n *Node) handleScan(w http.ResponseWriter, r *http.Request) {
	id, ctx := r.PathValue("id"), r.Context()
	targets := []string{n.cfg.ID} // a forwarded scan is served here, whatever the ring says
	if !forwarded(r) {
		n.noteRoutedScan(id)
		targets = n.scanTargets(id)
	}
	if targets[0] == n.cfg.ID && n.resident(ctx, id) {
		n.local.ServeHTTP(w, r)
		return
	}
	buf, ok := input.ReadBody(w, r)
	if !ok {
		return
	}
	body := input.Bodies.Share(buf)
	defer body.Release()
	// unreachable is the last peer tried, if it could not be reached; the
	// loop's last turn is the local repair.
	var unreachable *proxyResp
	for _, target := range append(targets, n.cfg.ID) {
		if target == n.cfg.ID {
			if n.resident(ctx, id) {
				break
			}
			continue
		}
		resp, perr := n.send(ctx, target, http.MethodPost, "/v1/programs/"+id+"/scan", r.Header, body.Reader(), int64(len(buf)))
		if unreachable = perr; perr != nil {
			continue
		}
		if resp.StatusCode != http.StatusNotFound {
			relay(w, resp)
			return
		}
		resp.Body.Close()
	}
	if _, ok := n.svc.Program(id); !ok && unreachable != nil {
		writeProxyResp(w, unreachable) // more informative than the local 404
		return
	}
	// After a fall-through the service copies the body a second time.
	r2 := *r
	r2.Body, r2.ContentLength = io.NopCloser(bytes.NewReader(buf)), int64(len(buf))
	n.local.ServeHTTP(w, &r2)
}

// scanTargets returns the live replica set for id, rotated round-robin
// so consecutive scans through this gateway spread across replicas.
func (n *Node) scanTargets(id string) []string {
	replicas := n.cfg.Replicas
	if meta, ok := n.catalog.Get(id); ok && meta.Replicas > replicas {
		replicas = meta.Replicas
	}
	placement := n.ring.Placement(id, replicas)
	alive := placement[:0:0]
	for _, p := range placement {
		if n.members.Alive(p) {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return []string{n.cfg.ID}
	}
	start := int(n.rr.Add(1)) % len(alive)
	out := make([]string, 0, len(alive))
	for i := 0; i < len(alive); i++ {
		out = append(out, alive[(start+i)%len(alive)])
	}
	return out
}

// routeOwner returns the first live placement slot for key (self when
// the ring has no live candidates).
func (n *Node) routeOwner(key string) string {
	for _, id := range n.ring.Placement(key, n.ring.Size()) {
		if n.members.Alive(id) {
			return id
		}
	}
	return n.cfg.ID
}

// Cluster session IDs are "node~localSID": the owning node is encoded
// in the ID itself, so feed/close routing is a string split — sticky to
// the node holding the stream state no matter how the ring moves.
const sessionSep = "~"

func clusterSessionID(node, local string) string { return node + sessionSep + local }

func splitSessionID(sid string) (node, local string, ok bool) {
	node, local, ok = strings.Cut(sid, sessionSep)
	if !ok || node == "" || local == "" {
		return "", "", false
	}
	return node, local, true
}

// handleOpenSession places a new stream on the least-loaded live
// replica of its program and returns a cluster-qualified session ID.
func (n *Node) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	body, ok := input.ReadBody(w, r)
	if !ok {
		return
	}
	if forwarded(r) {
		writeProxyResp(w, n.localRoundTrip(r.Context(), http.MethodPost, "/v1/sessions", r.Header, body))
		return
	}
	var req struct {
		ProgramID string `json:"program_id"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.ProgramID == "" {
		writeProxyResp(w, n.localRoundTrip(r.Context(), http.MethodPost, "/v1/sessions", r.Header, body))
		return
	}
	target := n.sessionTarget(req.ProgramID)
	resp := n.roundTrip(r.Context(), target, http.MethodPost, "/v1/sessions", r.Header, body)
	if resp.status == http.StatusNotFound && n.resident(r.Context(), req.ProgramID) {
		// The chosen replica (this node included) does not hold the
		// program; open here, where the repair has just materialized it.
		target = n.cfg.ID
		resp = n.roundTrip(r.Context(), target, http.MethodPost, "/v1/sessions", r.Header, body)
	}
	if resp.status < 300 {
		var open struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(resp.body, &open); err == nil && open.SessionID != "" {
			open.SessionID = clusterSessionID(target, open.SessionID)
			resp.body, _ = json.Marshal(open)
		}
	}
	writeProxyResp(w, resp)
}

// sessionTarget picks the live replica with the smallest announced
// queue depth (self wins ties) for a new stream.
func (n *Node) sessionTarget(programID string) string {
	replicas := n.cfg.Replicas
	if meta, ok := n.catalog.Get(programID); ok && meta.Replicas > replicas {
		replicas = meta.Replicas
	}
	best := n.cfg.ID
	bestDepth := int64(1<<62 - 1)
	if m, ok := n.members.Get(n.cfg.ID); ok {
		bestDepth = m.QueueDepth
	}
	found := false
	for _, id := range n.ring.Placement(programID, replicas) {
		if !n.members.Alive(id) {
			continue
		}
		m, ok := n.members.Get(id)
		if !ok {
			continue
		}
		if !found || m.QueueDepth < bestDepth || (m.QueueDepth == bestDepth && id == n.cfg.ID) {
			best, bestDepth, found = id, m.QueueDepth, true
		}
	}
	return best
}

// handleFeed routes a chunk to the node encoded in the session ID: one
// target, no retry, so the body streams through and is never buffered here.
func (n *Node) handleFeed(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	node, local, ok := splitSessionID(sid)
	if forwarded(r) || !ok {
		n.local.ServeHTTP(w, r)
		return
	}
	path := "/v1/sessions/" + local + "/data"
	if node == n.cfg.ID {
		r2 := *r
		r2.URL = &url.URL{Path: path}
		n.local.ServeHTTP(w, &r2)
		return
	}
	if !input.LimitBody(w, r) {
		return
	}
	resp, perr := n.send(r.Context(), node, http.MethodPost, path, r.Header, r.Body, r.ContentLength)
	if perr != nil {
		if perr.status == http.StatusBadGateway && !n.members.Alive(node) {
			perr = proxyError(http.StatusNotFound, "session %s: node %s has left the cluster", sid, node)
		}
		writeProxyResp(w, perr)
		return
	}
	relay(w, resp)
}

// handleCloseSession routes DELETE to the session's node and rewrites
// the summary's session ID back to the cluster-qualified form.
func (n *Node) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	node, local, ok := splitSessionID(sid)
	if forwarded(r) || !ok {
		n.local.ServeHTTP(w, r)
		return
	}
	resp := n.roundTrip(r.Context(), node, http.MethodDelete, "/v1/sessions/"+local, r.Header, nil)
	if resp.status == http.StatusBadGateway && !n.members.Alive(node) {
		resp = proxyError(http.StatusNotFound, "session %s: node %s has left the cluster", sid, node)
	} else if resp.status < 300 {
		var out map[string]any
		if err := json.Unmarshal(resp.body, &out); err == nil {
			if summary, ok := out["summary"].(map[string]any); ok {
				summary["session_id"] = sid
				if patched, err := json.Marshal(out); err == nil {
					resp.body = patched
				}
			}
		}
	}
	writeProxyResp(w, resp)
}

// handleGossip merges a peer's pushed view and replies with ours.
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var req gossipRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		writeProxyResp(w, proxyError(http.StatusBadRequest, "cluster: decode gossip: %v", err))
		return
	}
	n.absorb(req.View)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(gossipResponse{View: n.members.Infos()})
}

// handleProgramMeta serves full program meta (the fetch-on-stale target).
func (n *Node) handleProgramMeta(w http.ResponseWriter, r *http.Request) {
	meta, ok := n.catalog.Get(r.PathValue("id"))
	if !ok {
		writeProxyResp(w, proxyError(http.StatusNotFound, "unknown program"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(meta)
}

// handleMembers is the cluster debug view: membership, ring, catalog.
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"self":    n.cfg.ID,
		"addr":    n.Addr(),
		"members": n.members.View(),
		"ring":    n.ring.Members(),
		"catalog": n.catalog.Digests(),
	})
}
