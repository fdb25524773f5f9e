package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Endpoint is one codec-negotiated route: its path and the codecs of its
// request and response. The server (serve), the fleet router and the
// client (call) all work from the same entry, so "which codec is this
// body in, and which does the caller want back" is decided in this file
// and nowhere else. DESIGN.md §13 has the recipe for adding a route.
type Endpoint[Req, Resp any] struct {
	Path     string
	Request  Codec[Req]
	Response Codec[Resp]
}

// Codec is one wire type in both encodings: its binary frame kind and
// layout from codec.go (JSON needs none; the wire types carry tags),
// chosen between by a Content-Type.
type Codec[T any] struct {
	kind   byte
	layout func(*coder, *T)
	// strict rejects unknown JSON fields. Requests are strict (a caller's
	// typo is not something to evaluate around); responses are not, so a
	// client keeps working against a daemon that has grown a field.
	strict bool
}

// Endpoints lists the path of every table entry, so a gate that must hold
// for all of them (the interop test, the codec fuzzer) ranges over it.
var Endpoints []string

// EndpointURLs joins base with the path of every table entry, for a
// sender to look up instead of joining them on every request. Each base's
// table is built once and then shared read-only; a base is the caller's
// to choose, so the tables are dropped when they reach 256.
func EndpointURLs(base string) map[string]string {
	endpointURLs.Lock()
	defer endpointURLs.Unlock()
	if urls, ok := endpointURLs.m[base]; ok {
		return urls
	}
	urls := make(map[string]string, len(Endpoints))
	for _, p := range Endpoints {
		urls[p] = base + p
	}
	if len(endpointURLs.m) == 256 {
		clear(endpointURLs.m)
	}
	endpointURLs.m[base] = urls
	return urls
}

var endpointURLs = struct {
	sync.Mutex
	m map[string]map[string]string
}{m: map[string]map[string]string{}}

// entry builds a table entry from the frame kind and layout of its
// request and of its response.
func entry[Req, Resp any](path string, reqKind byte, req func(*coder, *Req), respKind byte, resp func(*coder, *Resp)) *Endpoint[Req, Resp] {
	Endpoints = append(Endpoints, path)
	return &Endpoint[Req, Resp]{path, Codec[Req]{reqKind, req, true}, Codec[Resp]{respKind, resp, false}}
}

var (
	EvalEndpoint = entry("/v1/eval",
		kindEvalRequest, (*coder).evalRequest, kindEvalResponse, (*coder).evalResponse)
	EvalBatchEndpoint = entry("/v1/evalbatch",
		kindBatchRequest, (*coder).batchRequest, kindBatchResponse, (*coder).batchResponse)
	CacheLookupEndpoint = entry("/v1/cachelookup",
		kindCacheLookupRequest, (*coder).cacheLookupRequest, kindCacheLookupResponse, (*coder).cacheLookupResponse)
)

const jsonContentType = "application/json"

// Caps on remote input; constants, not knobs, since only a hostile or
// broken caller meets them. MaxBodyBytes bounds every request body the
// daemon or the router reads: sixteen KiB per item of a full batch and far
// beyond any EIL source in the tree. maxBatch bounds a batch's items and a
// probe's keys, maxEnumLimit an EvalRequest's EnumLimit.
const (
	MaxBodyBytes = 16 << 20
	maxBatch     = 1024
	maxEnumLimit = 1 << 20
)

// Encode appends v to buf in the codec contentType names: the binary
// frame is the kind's header and then the layout run in encode mode.
func (c *Codec[T]) Encode(buf *bytes.Buffer, contentType string, v *T) error {
	if !IsBinaryContentType(contentType) {
		return json.NewEncoder(buf).Encode(v)
	}
	k := newCoder(encoding, buf, nil)
	k.header(c.kind)
	c.layout(k, v)
	return k.release()
}

// Decode parses body in the codec contentType names. Both codecs yield
// the same Go value shapes, so anything computed from a decoded request
// (memo keys, the router's spread hashes) agrees across them, and nothing
// in the result aliases body. A binary body must be exactly one frame.
func (c *Codec[T]) Decode(contentType string, body []byte) (*T, error) {
	v := new(T)
	if err := c.decodeInto(contentType, body, v, nil); err != nil {
		return nil, err
	}
	return v, nil
}

// decodeInto is Decode into v. Binary, a string v holds or known maps is
// kept where the frame repeats it (see coder.str); JSON empties v first.
func (c *Codec[T]) decodeInto(contentType string, body []byte, v *T, known map[string]string) error {
	if IsBinaryContentType(contentType) {
		k := newCoder(decoding, nil, body)
		k.known = known
		k.header(c.kind)
		c.layout(k, v)
		k.done()
		return k.release()
	}
	*v = *new(T)
	if c.strict {
		return decodeStrictJSON(body, v)
	}
	return json.Unmarshal(body, v)
}

// Frame returns body as a binary frame, for a caller that switches frames
// instead of decoding them (the fleet router): a binary body is returned
// as it came; a JSON one is decoded — strictly, for a request — and
// re-encoded into scratch, whose bytes the result then aliases. The
// re-encoding is the canonical one, so what a walker reads off it agrees
// with what it reads off a binary caller's own frame.
func (c *Codec[T]) Frame(scratch *bytes.Buffer, contentType string, body []byte) ([]byte, error) {
	if IsBinaryContentType(contentType) {
		return body, nil
	}
	v, err := c.Decode(contentType, body)
	if err == nil {
		err = c.Encode(scratch, BinaryContentType, v)
	}
	if err != nil {
		return nil, err
	}
	return scratch.Bytes(), nil
}

func decodeStrictJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ReadBody drains the request body into buf, bounded by MaxBodyBytes. A
// false return means the rejection — 413 past the cap, 400 for a broken
// stream — is already written. A body whose declared Content-Length fits
// is read bare: net/http already stops it at that length, and the hot
// path is spared the limiter's allocation.
func ReadBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	if r.Body == nil {
		return true
	}
	body := r.Body
	if r.ContentLength < 0 || r.ContentLength > MaxBodyBytes {
		body = http.MaxBytesReader(w, body, MaxBodyBytes)
	}
	_, err := buf.ReadFrom(body)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBodyBytes)
	} else {
		WriteError(w, http.StatusBadRequest, "read body: %v", err)
	}
	return false
}

// AcceptsBinary reports whether the caller's Accept asks for the binary
// codec.
func AcceptsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), BinaryContentType)
}

// WriteFrame answers 200 with an answer already in its binary frame: as
// it is to a caller whose Accept names BinaryContentType — a substring
// match, so a multi-valued Accept ("application/x-eisvc-bin,
// application/json") negotiates correctly — and decoded and written as
// JSON to any other. Errors never come through here: they are always JSON
// (WriteError), so the debug path stays readable exactly when something
// went wrong.
func (e *Endpoint[Req, Resp]) WriteFrame(w http.ResponseWriter, r *http.Request, frame *bytes.Buffer) {
	if AcceptsBinary(r) {
		writeBody(w, http.StatusOK, BinaryContentType, frame)
		return
	}
	resp, err := e.Response.Decode(BinaryContentType, frame.Bytes())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "decode response: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// writeBody sends an encoded body with an exact Content-Length. Values
// are assigned, not Set (which allocates): the Content-Type is a shared,
// read-only one, and a body of up to 2 KiB, written in one Write by a
// handler that then returns, gets its length from net/http for free.
func writeBody(w http.ResponseWriter, status int, contentType string, buf *bytes.Buffer) {
	h := w.Header()
	h["Content-Type"] = jsonContentTypes
	if contentType == BinaryContentType {
		h["Content-Type"] = binaryContentTypes
	}
	if buf.Len() > 2048 {
		h["Content-Length"] = []string{strconv.Itoa(buf.Len())}
	}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

var jsonContentTypes, binaryContentTypes = []string{jsonContentType}, []string{BinaryContentType}

// call is the client side of the entry: encode req in the client's codec
// (binary when Client.Binary, offering the same in Accept), run the
// retry/hedge engine, decode whatever codec came back into resp (see
// decodeInto for known). Evaluations and memo probes are deterministic and
// touch nothing but caches, so every entry retries and hedges. The request
// goes as an exactly sized copy of a pooled encoding, deliberately NOT
// pooled: an abandoned hedge or retry attempt's transport goroutine can
// still be reading it after do returns, and a batch's holds read the items
// they may hold out of it. The GC collects it once the last reference
// drops.
func (e *Endpoint[Req, Resp]) call(ctx context.Context, c *Client, req *Req, resp *Resp, known map[string]string) error {
	hop, scratch := c.hop(), GetBuffer()
	err := e.Request.Encode(scratch, hop.ContentType, req)
	payload := bytes.Clone(scratch.Bytes())
	PutBuffer(scratch)
	if b, ok := any(req).(*BatchEvalRequest); ok && b.holds != nil {
		b.holds.frame = payload
	}
	if err != nil {
		return err
	}
	return e.send(ctx, c, hop, payload, resp, known)
}

// hop is the hop of the client's endpoint-table calls.
func (c *Client) hop() Hop {
	if c.Binary {
		return Hop{ContentType: BinaryContentType, Accept: BinaryContentType, Client: c.ID}
	}
	return Hop{ContentType: jsonContentType, Client: c.ID}
}

// send is call past the encoding: payload, the request in hop's codec,
// through the retry/hedge engine, and the answer decoded into resp.
func (e *Endpoint[Req, Resp]) send(ctx context.Context, c *Client, hop Hop, payload []byte, resp *Resp, known map[string]string) error {
	buf, answered, err := c.do(ctx, http.MethodPost, e.Path, payload, hop, true)
	if err != nil {
		return err
	}
	defer PutBuffer(buf)
	// answered is the codec the server chose: binary when our Accept was
	// honored, JSON from a daemon that pre-dates the codec.
	return e.Response.decodeInto(answered, buf.Bytes(), resp, known)
}

// callJSON serves the routes that never negotiate (register, rebind,
// stats, health, ...): marshal in when non-nil, unmarshal the answer as a
// T. The payload is unpooled for call's reason.
func callJSON[T any](ctx context.Context, c *Client, method, path string, in any, idempotent bool) (*T, error) {
	hop := Hop{Client: c.ID}
	var payload bytes.Buffer
	if in != nil {
		hop.ContentType = jsonContentType
		if err := json.NewEncoder(&payload).Encode(in); err != nil {
			return nil, err
		}
	}
	buf, _, err := c.do(ctx, method, path, payload.Bytes(), hop, idempotent)
	if err != nil {
		return nil, err
	}
	defer PutBuffer(buf)
	out := new(T)
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return nil, err
	}
	return out, nil
}
