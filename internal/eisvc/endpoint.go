package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
)

// Endpoint is one codec-negotiated route: its path, whether a client may
// retry and hedge it, and the codecs of its request and response. The
// server (serve), the fleet router and the client (call) all work from
// the same entry, so "which codec is this body in, and which does the
// caller want back" is decided in this file and nowhere else. DESIGN.md
// §13 has the recipe for adding a route.
type Endpoint[Req, Resp any] struct {
	Path       string
	Idempotent bool
	Request    Codec[Req]
	Response   Codec[Resp]
}

// Codec is one wire type in both encodings: the binary pair from codec.go
// (JSON needs none; the wire types carry tags), chosen between by a
// Content-Type.
type Codec[T any] struct {
	encode func(*bytes.Buffer, *T) error
	decode func([]byte) (*T, error)
	// strict rejects unknown JSON fields. Requests are strict (a caller's
	// typo is not something to evaluate around); responses are not, so a
	// client keeps working against a daemon that has grown a field.
	strict bool
}

// Endpoints lists the path of every table entry, so a gate that must hold
// for all of them (the interop test) ranges over it.
var Endpoints []string

// entry builds a table entry. Evaluations, sweeps and memo probes are
// deterministic and touch nothing but caches, so every entry so far is
// idempotent.
func entry[Req, Resp any](path string, encodeReq func(*bytes.Buffer, *Req) error, decodeReq func([]byte) (*Req, error),
	encodeResp func(*bytes.Buffer, *Resp) error, decodeResp func([]byte) (*Resp, error)) *Endpoint[Req, Resp] {
	Endpoints = append(Endpoints, path)
	return &Endpoint[Req, Resp]{path, true, Codec[Req]{encodeReq, decodeReq, true}, Codec[Resp]{encodeResp, decodeResp, false}}
}

var (
	EvalEndpoint = entry("/v1/eval",
		EncodeEvalRequest, DecodeEvalRequest, EncodeEvalResponse, DecodeEvalResponse)
	EvalBatchEndpoint = entry("/v1/evalbatch",
		EncodeBatchEvalRequest, DecodeBatchEvalRequest, EncodeBatchEvalResponse, DecodeBatchEvalResponse)
	CacheLookupEndpoint = entry("/v1/cachelookup",
		EncodeCacheLookupRequest, DecodeCacheLookupRequest, EncodeCacheLookupResponse, DecodeCacheLookupResponse)
	OptimizeEndpoint = entry("/v1/optimize",
		EncodeOptimizeRequest, DecodeOptimizeRequest, EncodeOptimizeResponse, DecodeOptimizeResponse)
)

const jsonContentType = "application/json"

// MaxBodyBytes caps every request body the daemon or the router reads. A
// constant, not a knob: 16 MiB is sixteen KiB per item of a full default
// MaxBatch batch and far beyond any EIL source in the tree, so only a
// hostile or broken caller ever meets it.
const MaxBodyBytes = 16 << 20

// Encode appends v to buf in the codec contentType names.
func (c *Codec[T]) Encode(buf *bytes.Buffer, contentType string, v *T) error {
	if IsBinaryContentType(contentType) {
		return c.encode(buf, v)
	}
	return json.NewEncoder(buf).Encode(v)
}

// Decode parses body in the codec contentType names. Both codecs yield
// the same Go value shapes, so anything computed from a decoded request
// (memo keys, the router's spread hashes) agrees across them, and nothing
// in the result aliases body.
func (c *Codec[T]) Decode(contentType string, body []byte) (*T, error) {
	if IsBinaryContentType(contentType) {
		return c.decode(body)
	}
	v := new(T)
	decode := json.Unmarshal
	if c.strict {
		decode = decodeStrictJSON
	}
	if err := decode(body, v); err != nil {
		return nil, err
	}
	return v, nil
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
	if err != nil {
		return nil, err
	}
	if err := c.encode(scratch, v); err != nil {
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

// Read drains and decodes one request through a pooled buffer. A nil
// return means the rejection (413 or 400) is already written.
func (e *Endpoint[Req, Resp]) Read(w http.ResponseWriter, r *http.Request) *Req {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if !ReadBody(w, r, buf) {
		return nil
	}
	req, err := e.Request.Decode(r.Header.Get("Content-Type"), buf.Bytes())
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil
	}
	return req
}

// Write answers 200 in the codec the caller's Accept asks for: binary
// only when it names BinaryContentType — a substring match, so a
// multi-valued Accept ("application/x-eisvc-bin, application/json")
// negotiates correctly. Errors never come through here: they are always
// JSON (WriteError), so the debug path stays readable exactly when
// something went wrong.
func (e *Endpoint[Req, Resp]) Write(w http.ResponseWriter, r *http.Request, resp *Resp) {
	contentType := jsonContentType
	if AcceptsBinary(r) {
		contentType = BinaryContentType
	}
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := e.Response.Encode(buf, contentType, resp); err != nil {
		WriteError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	writeBody(w, http.StatusOK, contentType, buf)
}

// AcceptsBinary reports whether the caller's Accept asks for the binary
// codec.
func AcceptsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), BinaryContentType)
}

// WriteFrame answers 200 with an answer already in its binary frame: as
// it is to a caller that accepts binary, decoded and written as JSON to
// one that does not.
func (e *Endpoint[Req, Resp]) WriteFrame(w http.ResponseWriter, r *http.Request, frame *bytes.Buffer) {
	if AcceptsBinary(r) {
		writeBody(w, http.StatusOK, BinaryContentType, frame)
		return
	}
	resp, err := e.Response.decode(frame.Bytes())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "decode response: %v", err)
		return
	}
	e.Write(w, r, resp)
}

// writeBody sends an encoded body with an exact Content-Length.
func writeBody(w http.ResponseWriter, status int, contentType string, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// call is the client side of the entry: encode req in the client's codec
// (binary when Client.Binary, offering the same in Accept), run the
// retry/hedge engine, decode whatever codec came back. The payload buffer
// is deliberately NOT pooled: an abandoned hedge or retry attempt's
// transport goroutine can still be reading the request body after do
// returns, so recycling its backing array would hand racing bytes to the
// next request. The GC collects it once the last reference drops.
func (e *Endpoint[Req, Resp]) call(ctx context.Context, c *Client, req *Req) (*Resp, error) {
	contentType, accept := jsonContentType, ""
	if c.Binary {
		contentType, accept = BinaryContentType, BinaryContentType
	}
	var payload bytes.Buffer
	if err := e.Request.Encode(&payload, contentType, req); err != nil {
		return nil, err
	}
	buf, answered, err := c.do(ctx, http.MethodPost, e.Path, payload.Bytes(), contentType, accept, e.Idempotent)
	if err != nil {
		return nil, err
	}
	defer PutBuffer(buf)
	// answered is the codec the server chose: binary when our Accept was
	// honored, JSON from a daemon that pre-dates the codec.
	return e.Response.Decode(answered, buf.Bytes())
}

// callJSON serves the routes that never negotiate (register, rebind,
// stats, health, ...): marshal in when non-nil, unmarshal the answer as a
// T. The payload is unpooled for call's reason.
func callJSON[T any](ctx context.Context, c *Client, method, path string, in any, idempotent bool) (*T, error) {
	var payload bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&payload).Encode(in); err != nil {
			return nil, err
		}
	}
	buf, _, err := c.do(ctx, method, path, payload.Bytes(), jsonContentType, "", idempotent)
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
