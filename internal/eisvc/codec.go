package eisvc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"

	"energyclarity/internal/core"
)

// The binary wire protocol. JSON (wire.go) is the debug path: every
// payload a daemon serves is also readable with curl. The hot path —
// eval, evalbatch, cachelookup, and the cache snapshot files — has a
// second, length-prefixed binary encoding that round-trips float64 bit
// patterns exactly (math.Float64bits, so NaN payloads, ±Inf, and
// negative zero survive) and costs a near-memcpy to encode or decode
// instead of a float-to-decimal conversion per sample point.
//
// Framing: every message starts with the 4-byte magic "EIB" + format
// version, then one kind byte, then the kind's payload. Integers are
// little-endian fixed-width; strings and vectors are length-prefixed
// with a uint32. Record fields and fixed-ECV maps encode in sorted key
// order, so identical requests encode to identical bytes (the fleet
// router's spread hashing and the memo canonicalization both rely on
// deterministic encodings).
//
// Each payload's layout is written once, as a coder method that visits
// its fields in wire order; the coder's mode decides whether that encodes,
// decodes or walks the payload (see coder). Which codec a given body is
// in, and which the caller wants back, is decided in endpoint.go.

// BinaryContentType is the negotiated media type of the binary codec.
const BinaryContentType = "application/x-eisvc-bin"

// binVersion is the codec format version carried in the magic header.
// Bump it on any layout change a stored file or a foreign client could
// meet; decoders reject other versions. (The two cache-probe kinds became
// key lists, and later grew an optional summary tail, without a bump:
// only same-build fleet peers exchange them, and a frame in the other
// layout fails to decode — a failed probe is a miss.)
const binVersion = 1

// binMagic prefixes every binary message and snapshot file.
var binMagic = [4]byte{'E', 'I', 'B', binVersion}

// Message kind bytes (the fifth byte of every frame).
const (
	kindEvalRequest byte = iota + 1
	kindEvalResponse
	kindBatchRequest
	kindBatchResponse
	kindCacheLookupRequest
	kindCacheLookupResponse
	kindSnapshot
)

// IsBinaryContentType reports whether a Content-Type (or Accept) header
// value names the binary codec, ignoring any media-type parameters.
func IsBinaryContentType(v string) bool {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return v == BinaryContentType
}

// --- pooled buffers ---

// bufPool recycles the scratch buffers behind every encode and every
// response read, client- and server-side. Returning a buffer is safe
// only after nothing aliases its bytes; both wire paths decode (copying
// what they keep) before release.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool: a one-off giant batch
// must not pin megabytes forever.
const maxPooledBuf = 1 << 20

// GetBuffer takes an empty scratch buffer from the codec pool.
func GetBuffer() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// PutBuffer resets and returns a buffer to the pool.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// --- the coder ---

// mode is what a coder does with the fields a layout visits.
type mode uint8

const (
	// encoding appends each field to buf. It reads fields through their
	// pointers and never writes back: a memo entry's *WireDist is encoded
	// by any number of responses at once.
	encoding mode = iota
	// decoding reads each field from data and stores it.
	decoding
	// walking reads and checks each field as decoding does but stores only
	// the fixed-width ones, and allocates nothing: it is how the fleet
	// router learns where a frame's items lie without decoding them.
	walking
	// keying walks, appending to key the memo-key text of the arguments
	// and pins it walks (evalBody): how a node answers a warm item (keyItem).
	keying
)

// coder lays out one frame. A layout is a coder method that visits a
// payload's fields in wire order through accessors (u8, u64, i64, int,
// f64, count, str, name, floats, flags, value) that take a pointer to the
// field; the mode decides what each visit does. In decode and walk mode
// the first malformed read latches an error and every later read is a
// no-op, so a layout reads straight through and the caller checks once.
// Truncated input is always an error, never a panic — the decoders face
// network bytes.
//
// Coders are pooled (newCoder, release): a Codec calls its layout through
// a func value, which makes the coder escape, and the pool keeps that from
// costing an allocation per frame.
type coder struct {
	mode    mode
	buf     *bytes.Buffer // encoding: the frame is appended here, from start
	start   int
	scratch [8]byte
	data    []byte // decoding, walking: the frame, read from off
	off     int
	// err is the first malformed read's error. A short read, the usual
	// one, only sets short; release makes its error from off.
	err   error
	short bool
	// batch, set by the batch layouts, shares the strings a batch's items
	// repeat through names (see name) and gathers their arguments in vals
	// (see batchRequest): scratch kept across frames, empty between them.
	batch bool
	names map[string]string
	vals  []core.Value
	// refs, reading a batch, is what each item read so far stands for: the
	// index of the earlier item it repeats, or its own (see itemRef). seen,
	// encoding a batch request, finds the earlier item one repeats (see
	// endItem).
	refs []int
	seen map[uint64]span
	// dists holds a batch answer's distributions until their count is known.
	dists []WireDist
	// key, keying, is where the memo key is appended; the caller owns it.
	key []byte
	// known, decoding, maps strings to copies the reader keeps (see str).
	known map[string]string
}

// span is an encoded batch item: its index and its bytes' range.
type span struct{ item, off, end int }

var coderPool = sync.Pool{New: func() any { return &coder{names: map[string]string{}} }}

// newCoder takes a coder from the pool: an encoding one appends to buf, a
// decoding or walking one reads data.
func newCoder(m mode, buf *bytes.Buffer, data []byte) *coder {
	c := coderPool.Get().(*coder)
	c.mode, c.buf, c.data = m, buf, data
	if buf != nil {
		c.start = buf.Len()
	}
	return c
}

// release returns c to the pool, keeping nothing of its frame, and
// returns the error it latched.
func (c *coder) release() error {
	err := c.err
	if err == nil && c.short {
		err = fmt.Errorf("eisvc: binary codec: truncated at byte %d", c.off)
	}
	clear(c.names)
	clear(c.vals)
	clear(c.seen)
	clear(c.dists)
	vals, refs, dists := c.vals[:0], c.refs[:0], c.dists[:0]
	if cap(vals) > maxPooledVals {
		vals = nil
	}
	if cap(dists) > maxPooledDists {
		dists = nil
	}
	*c = coder{names: c.names, vals: vals, refs: refs, seen: c.seen, dists: dists}
	coderPool.Put(c)
	return err
}

// fail latches the first error. It also ends the frame where the reading
// stopped, so every later read comes up short.
func (c *coder) fail(format string, args ...any) {
	if !c.failed() {
		c.err = fmt.Errorf("eisvc: binary codec: "+format, args...)
		c.data = c.data[:c.off]
	}
}

func (c *coder) failed() bool { return c.err != nil || c.short }

// take consumes the next n bytes of the frame, or, when fewer are left,
// fails as fail does and returns nil. It is small enough to inline into
// every reader, so it records the failure rather than formatting it.
func (c *coder) take(n int) []byte {
	if rest := c.data[c.off:]; n <= len(rest) {
		c.off += n
		return rest[:n]
	}
	c.data, c.short = c.data[:c.off], true
	return nil
}

// header lays out the frame head: the magic with its version, and the
// kind byte.
func (c *coder) header(kind byte) {
	if c.mode == encoding {
		c.buf.Write(binMagic[:])
		c.buf.WriteByte(kind)
		return
	}
	head := c.data[c.off:]
	switch {
	case len(head) < len(binMagic)+1:
		c.fail("truncated header")
	case !bytes.Equal(head[:3], binMagic[:3]):
		c.fail("bad magic")
	case head[3] != binVersion:
		c.fail("unsupported format version %d (want %d)", head[3], binVersion)
	case head[4] != kind:
		c.fail("unexpected message kind %d (want %d)", head[4], kind)
	default:
		c.off += len(binMagic) + 1
	}
}

// done latches an error unless the frame was consumed exactly.
func (c *coder) done() {
	if !c.failed() && c.off != len(c.data) {
		c.fail("%d trailing byte(s)", len(c.data)-c.off)
	}
}

func (c *coder) u8(p *byte) {
	if c.mode == encoding {
		c.buf.WriteByte(*p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

func (c *coder) u64(p *uint64) {
	if c.mode == encoding {
		c.buf.Write(binary.LittleEndian.AppendUint64(c.scratch[:0], *p))
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

func (c *coder) i64(p *int64) { asU64(c, p) }
func (c *coder) int(p *int)   { asU64(c, p) }

// asU64 lays out an integer as its 64-bit two's-complement image.
func asU64[T int | int64](c *coder, p *T) {
	u := uint64(*p)
	c.u64(&u)
	if c.mode != encoding {
		*p = T(u)
	}
}

func (c *coder) f64(p *float64) {
	u := math.Float64bits(*p)
	c.u64(&u)
	if c.mode != encoding {
		*p = math.Float64frombits(u)
	}
}

// count lays out a uint32 length prefix. Reading, it checks the count
// against the bytes left — each counted element costs at least min of
// them — so a corrupted count cannot drive a huge allocation; min 0 reads
// a plain uint32.
func (c *coder) count(n *int, min int) {
	if c.mode == encoding {
		c.buf.Write(binary.LittleEndian.AppendUint32(c.scratch[:0], uint32(*n)))
		return
	}
	*n = 0
	if b := c.take(4); b != nil {
		*n = int(binary.LittleEndian.Uint32(b))
	}
	if min > 0 && *n > (len(c.data)-c.off)/min {
		c.fail("count %d exceeds remaining input", *n)
		*n = 0
	}
}

// raw reads a length-prefixed run of size-byte elements — a string's
// bytes, a vector's floats — without copying it: the result aliases the
// frame. A count the frame cannot hold is a short read, caught before any
// allocation is sized by it.
func (c *coder) raw(size int) []byte {
	b := c.take(4)
	if b == nil {
		return nil
	}
	return c.take(size * int(binary.LittleEndian.Uint32(b)))
}

// str lays out a string. Decoding, bytes equal to *p leave it and bytes
// c.known maps take that string: a client decodes the names its answers
// repeat into the copies it keeps (see Client.EvalCtx).
func (c *coder) str(p *string) {
	if c.mode == encoding {
		n := len(*p)
		c.count(&n, 0)
		c.buf.WriteString(*p)
		return
	}
	b := c.raw(1)
	if c.mode != decoding || string(b) == *p {
		return
	}
	if s, ok := c.known[string(b)]; ok {
		*p = s
	} else {
		*p = string(b) // a copy: the frame's buffer is pooled
	}
}

// Bounds of a batch decode's intern table: a hostile frame can pin at
// most maxInternEntries * maxInternLen bytes through it, for the life of
// one decode. A pooled coder keeps at most maxPooledVals values (64 bytes
// each) of argument scratch and maxPooledDists distributions (96 bytes
// each) of answer scratch: a one-off giant batch must not pin either.
const (
	maxInternEntries = 64
	maxInternLen     = 64
	maxPooledVals    = 1 << 11
	maxPooledDists   = 1 << 9
)

// name is str for the strings the items of a batch repeat — interface,
// method, mode, record and fixed-ECV keys: decoding a batch, 256 items
// drawn from three stacks share one copy of each instead of allocating
// 256. Anywhere else it is str.
func (c *coder) name(p *string) {
	if c.mode != decoding || !c.batch {
		c.str(p)
		return
	}
	b := c.raw(1)
	if len(b) > maxInternLen {
		*p = string(b)
		return
	}
	if s, ok := c.names[string(b)]; ok { // no allocation: the conversion is a lookup key only
		*p = s
		return
	}
	s := string(b)
	if len(c.names) < maxInternEntries {
		c.names[s] = s
	}
	*p = s
}

// floats lays out a length-prefixed vector in one piece: the encoder grows
// the buffer once and stores the elements straight into its tail.
func (c *coder) floats(p *[]float64) {
	if c.mode == encoding {
		xs := *p
		n := len(xs)
		c.count(&n, 0)
		b := c.buf.AvailableBuffer()
		if cap(b) < 8*n {
			c.buf.Grow(8 * n)
			b = c.buf.AvailableBuffer()
		}
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		c.buf.Write(b)
		return
	}
	b := c.raw(8)
	if c.mode == walking || len(b) == 0 {
		return
	}
	*p = make([]float64, len(b)/8)
	putFloats(*p, b)
}

// putFloats decodes b's little-endian float64s into dst.
func putFloats(dst []float64, b []byte) {
	for i := range len(b) / 8 {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// flags lays out one byte whose bit i is *bits[i]; a nil entry is a bit
// the payload leaves clear.
func (c *coder) flags(bits ...*bool) {
	var f byte
	for i, b := range bits {
		if b != nil && *b {
			f |= 1 << i
		}
	}
	c.u8(&f)
	if c.mode == encoding {
		return
	}
	for i, b := range bits {
		if b != nil {
			*b = f&(1<<i) != 0
		}
	}
}

// seq lays out a slice's count, checked at min bytes an element, and
// returns the slice whose elements the caller lays out next: the
// encoder's own, or the one the decoder has just made. Neither walker
// lays out a seq.
func seq[T any](c *coder, s *[]T, min int) []T {
	n := len(*s)
	c.count(&n, min)
	if c.mode == decoding && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// optional returns where an optional field's payload is laid out: *p,
// which the decoder allocates first.
func optional[T any](c *coder, p **T) *T {
	if c.mode == decoding {
		*p = new(T)
	}
	return *p
}

// What the least element of each counted sequence occupies: its
// fixed-width fields and empty length prefixes. Counts are checked
// against the bytes left at these prices, by the decoders and the walkers
// alike. TestCountBoundsAreMinimalElements holds each to its layout.
const (
	minBatchItem   = refSize // a ref, in either kind of batch (see batchItems)
	minKey         = 4       // a length prefix
	minResult      = 1       // a flag byte
	minFingerprint = 4       // a uint32
	minMemoEntry   = 3 * 4   // a key, two vectors
	minLayerEntry  = 4 + 8   // a key, joules
	minValue       = 1       // a tag
	// minField bounds a record field or pinned ECV. The least one is 5
	// bytes (an empty name, a nil); 2 is looser, and raising it would
	// change which error some malformed frames fail with.
	minField = 2
)

// Value tag bytes, one per core.Value kind (booleans carry their value in
// the tag).
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagNum
	tagStr
	tagList
	tagRecord
)

// maxValueDepth bounds value nesting so hostile input cannot overflow
// the stack through recursive lists/records.
const maxValueDepth = 64

func valueTag(v core.Value) byte {
	switch v.Kind() {
	case core.KindBool:
		if b, _ := v.AsBool(); b {
			return tagTrue
		}
		return tagFalse
	case core.KindNum:
		return tagNum
	case core.KindStr:
		return tagStr
	case core.KindList:
		return tagList
	case core.KindRecord:
		return tagRecord
	}
	return tagNil
}

// value lays out one core.Value (what EvalRequest.Args and .Fixed hold):
// a tag, then the payload. It takes and returns the Value rather than a
// pointer, because a pointer handed down a recursive call moves what it
// points at to the heap: encoding lays v out, decoding returns what it
// read. Record fields go in sorted name order, so the bytes are canonical.
func (c *coder) value(v core.Value, depth int) core.Value {
	if c.failed() {
		return core.Nil()
	}
	if c.mode != encoding && depth > maxValueDepth {
		c.fail("value nesting exceeds %d", maxValueDepth)
		return core.Nil()
	}
	tag := valueTag(v)
	c.u8(&tag)
	switch tag {
	case tagNil:
		return c.scalar(core.Nil())
	case tagFalse, tagTrue:
		return c.scalar(core.Bool(tag == tagTrue))
	case tagNum:
		n, _ := v.AsNum()
		c.f64(&n)
		return c.scalar(core.Num(n))
	case tagStr:
		s, _ := v.AsStr()
		off := c.off
		if c.str(&s); c.mode == keying && !c.failed() {
			c.key = core.AppendStrKey(c.key, c.data[off+4:c.off])
		}
		return core.Str(s)
	case tagList:
		return c.list(v, depth)
	case tagRecord:
		return c.record(v, depth)
	}
	c.fail("unknown value tag %d", tag)
	return core.Nil()
}

// scalar returns v, keying after appending its key.
func (c *coder) scalar(v core.Value) core.Value {
	if c.mode == keying {
		c.key = v.AppendKey(c.key)
	}
	return v
}

// keyText appends text to the memo key when keying.
func (c *coder) keyText(text string) {
	if c.mode == keying {
		c.key = append(c.key, text...)
	}
}

// list and record are value's two containers, out of line so that the
// frame of every scalar value stays small.
func (c *coder) list(v core.Value, depth int) core.Value {
	n := v.Len()
	c.count(&n, minValue)
	var items []core.Value
	if c.mode == decoding {
		items = make([]core.Value, n)
	}
	c.keyText(core.KeyListOpen)
	for i := 0; i < n; i++ {
		item, _ := v.Index(i)
		if item = c.value(item, depth+1); items != nil {
			items[i] = item
		}
		c.keyText(core.KeyItemEnd)
	}
	c.keyText(core.KeyListClose)
	if items != nil {
		return core.List(items...)
	}
	return v
}

func (c *coder) record(v core.Value, depth int) core.Value {
	var buf [8]string                    // on the stack for the usual few fields
	names := v.AppendFieldNames(buf[:0]) // sorted; empty unless encoding
	n := len(names)
	c.count(&n, minField)
	var fields map[string]core.Value
	if c.mode == decoding {
		fields = make(map[string]core.Value, n)
	}
	c.keyText(core.KeyRecordOpen)
	var prev []byte
	for i := 0; i < n; i++ {
		var k string
		if c.mode == encoding {
			k = names[i]
		}
		prev = c.field(&k, prev, i)
		f, _ := v.Field(k)
		if f = c.value(f, depth+1); fields != nil {
			fields[k] = f
		}
		c.keyText(core.KeyItemEnd)
	}
	c.keyText(core.KeyRecordClose)
	if fields != nil {
		return core.Record(fields)
	}
	return v
}

// field lays out the name of a record's field i, or of pinned ECV i, and
// returns it read, for the next one's check: names are strictly ascending,
// as the encoder sorts them, so byte-equal items are equal values.
func (c *coder) field(k *string, prev []byte, i int) []byte {
	off := c.off
	c.name(k)
	if c.mode == encoding || c.failed() {
		return nil
	}
	b := c.data[off+4 : c.off]
	if i > 0 && bytes.Compare(b, prev) <= 0 {
		c.fail("field names not strictly ascending at %d", i)
	}
	if c.mode == keying {
		c.key = append(append(c.key, b...), core.KeyFieldName...)
	}
	return b
}

// --- layouts ---

// wireDist: the exact vectors plus the derived summary stats, so a binary
// client never recomputes quantiles. Decoding reads both vectors into one
// allocation, Support capped so that an append cannot run into Probs.
func (c *coder) wireDist(w *WireDist) {
	if c.mode == decoding {
		xs, ps := c.raw(8), c.raw(8)
		if len(xs)+len(ps) > 0 {
			n := len(xs) / 8
			both := make([]float64, n+len(ps)/8)
			putFloats(both, xs)
			putFloats(both[n:], ps)
			w.Support, w.Probs = both[:n:n], both[n:]
		}
	} else {
		c.floats(&w.Support)
		c.floats(&w.Probs)
	}
	c.f64(&w.Mean)
	c.f64(&w.Std)
	c.f64(&w.Min)
	c.f64(&w.Max)
	c.f64(&w.P99)
}

// evalRequest is one request, alone or as a batch item: its head, then its
// body, the values it asks about.
func (c *coder) evalRequest(r *EvalRequest) {
	c.evalHead(r)
	c.evalBody(r)
}

func (c *coder) evalHead(r *EvalRequest) {
	c.name(&r.Interface)
	c.name(&r.Method)
	c.name(&r.Mode)
	c.int(&r.Samples)
	c.i64(&r.Seed)
	c.int(&r.EnumLimit)
	c.int(&r.Parallelism)
	c.int(&r.DeadlineMs)
}

// evalBody is the arguments and the pinned ECVs; keying, it appends their
// part of the memo key, "|A[" args "]|F{" pins "}", each ";"-terminated.
func (c *coder) evalBody(r *EvalRequest) {
	c.keyText("|A[")
	c.args(&r.Args)
	c.keyText("]|F{")
	c.fixed(&r.Fixed)
	c.keyText("}")
}

// args: a count, then each value. A walker keeps no values, so each passes
// through a local. A batch's decoder appends them to c.vals, and *a is
// read only for its length until batchRequest gives the item its window.
func (c *coder) args(a *Args) {
	n := len(*a)
	c.count(&n, minValue)
	batched := c.mode == decoding && c.batch
	if c.mode == decoding && !batched && n > 0 {
		*a = make(Args, n)
	}
	for i := 0; i < n; i++ {
		var v core.Value
		if c.mode == encoding {
			v = (*a)[i]
		}
		v = c.value(v, 0)
		c.keyText(";")
		if batched {
			c.vals = append(c.vals, v)
		} else if c.mode == decoding {
			(*a)[i] = v
		}
	}
	if batched && n > 0 {
		*a = c.vals[len(c.vals)-n:]
	}
}

// fixed: a count, then name and value pairs in sorted name order.
func (c *coder) fixed(f *Fixed) {
	n := len(*f)
	c.count(&n, minField)
	names := make([]string, 0, 8) // on the stack for the usual few pins
	if c.mode == encoding {
		for k := range *f {
			names = append(names, k)
		}
		slices.Sort(names)
	} else if c.mode == decoding && n > 0 {
		*f = make(Fixed, n)
	}
	var prev []byte
	for i := 0; i < n; i++ {
		var k string
		var v core.Value
		if c.mode == encoding {
			k, v = names[i], (*f)[names[i]]
		}
		prev = c.field(&k, prev, i)
		if v = c.value(v, 0); c.mode == decoding {
			(*f)[k] = v
		}
		c.keyText(";")
	}
}

func (c *coder) evalResponse(r *EvalResponse) {
	c.str(&r.Interface)
	c.u64(&r.Version)
	c.str(&r.Method)
	c.str(&r.Mode)
	c.str(&r.Node)
	c.flags(&r.Cached, &r.Coalesced, &r.Peer)
	c.wireDist(&r.Dist)
}

// --- ref items ---
//
// A batch item of either kind may be a ref, "the same as item j of this
// frame": refMarker, then j as a uint32. j must be an earlier full item.
// No full item begins with the marker: it would be the length of the
// interface name both kinds begin with, 4 GiB. The encoder writes a
// request item as a ref when an earlier one encoded to the same bytes
// (endItem); a node answers with refs only a request that carried one
// (BatchEvalResponse.refs).
const (
	refMarker = math.MaxUint32
	refSize   = 8
)

// AppendBatchRef appends to b the ref item that repeats item j of a batch
// frame of either kind.
func AppendBatchRef(b []byte, j int) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, refMarker), uint32(j))
}

// itemRef lays out item i of a batch if it is a ref, and returns the item
// it stands for: j for a ref to item j, i for a full item, whose layout the
// caller runs next. Encoding, to is that index. Reading, c.refs records
// what each item stood for.
func (c *coder) itemRef(i, to int) int {
	if c.mode == encoding {
		if to != i {
			c.buf.Write(AppendBatchRef(c.buf.AvailableBuffer(), to))
		}
		return to
	}
	to = i
	if rest := c.data[c.off:]; len(rest) >= refSize && binary.LittleEndian.Uint32(rest) == refMarker {
		c.off += refSize
		switch j := int(binary.LittleEndian.Uint32(rest[4:])); {
		case j >= i:
			c.fail("item %d refers to item %d, not an earlier one", i, j)
		case c.refs[j] != j:
			c.fail("item %d refers to item %d, itself a ref", i, j)
		default:
			to = j
		}
	}
	c.refs = append(c.refs, to)
	return to
}

// endItem ends the encoding of request item i, begun at start: when an
// earlier full item encoded to the same bytes — found by hash, then
// compared — the item is cut off again and written as a ref to it.
// Otherwise it stays, held if r.held[i] or r.holds.find names a tag for it.
func (c *coder) endItem(r *BatchEvalRequest, i, start int) {
	b := c.buf.Bytes()
	item := b[start:]
	h := maphash.Bytes(keySeed, item)
	if s, ok := c.seen[h]; ok && bytes.Equal(item, b[s.off:s.end]) {
		c.buf.Truncate(start)
		c.buf.Write(AppendBatchRef(c.buf.AvailableBuffer(), s.item))
		return
	}
	var tag uint64
	if r.held != nil {
		tag = r.held[i]
	} else if r.holds != nil {
		tag = r.holds.find(i, h, item, start)
	}
	if tag != 0 { // the item moves up to make room for its prefix
		c.buf.Write(make([]byte, HeldPrefixLen))
		b = c.buf.Bytes()
		copy(b[start+HeldPrefixLen:], b[start:])
		AppendHeldPrefix(b[start:start], tag)
		start += HeldPrefixLen
	}
	if c.seen == nil {
		c.seen = map[uint64]span{}
	}
	c.seen[h] = span{i, start, c.buf.Len()}
}

// A batch request item may go behind a held prefix: heldMarker, then the
// DistTag of the answer its sender holds for exactly the item's bytes. A
// node whose answer is a 200 with that distribution sends it with the held
// bit and no distribution (batchItem), and the client fills in the one it
// holds (batchHolds). No item begins with the marker. JSON has neither.
const (
	heldMarker    = refMarker - 1
	HeldPrefixLen = 4 + 8 // the marker and a tag
)

// AppendHeldPrefix appends to b the held prefix that names tag.
func AppendHeldPrefix(b []byte, tag uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b, heldMarker), tag)
}

// heldPrefix reads the held prefix of the item that starts here and returns
// its tag, or 0 for none. A ref or prefix after it fails as a 4 GiB name.
func (c *coder) heldPrefix() (tag uint64) {
	if rest := c.data[c.off:]; len(rest) < 4 || binary.LittleEndian.Uint32(rest) != heldMarker {
		return 0
	}
	if b := c.take(HeldPrefixLen); b != nil {
		if tag = binary.LittleEndian.Uint64(b[4:]); tag == 0 {
			c.fail("held prefix names tag 0")
		}
	}
	return tag
}

// DistTag names w by its content, never 0: CRC-32C and CRC-32 of its
// layout. A version would not do, as a registry counts them anew in each
// process: a node restarted without its snapshot may reuse one.
func DistTag(w *WireDist) uint64 {
	buf := GetBuffer()
	defer PutBuffer(buf)
	c := newCoder(encoding, buf, nil)
	c.wireDist(w)
	c.release()
	b := buf.Bytes()
	return uint64(crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(b)) | 1
}

// batchItems is seq for a batch's items. Either kind can be a ref, so the
// count is checked at refSize bytes an item — and capped at maxBatch, since
// at that size the bytes alone would let a frame claim two million.
func batchItems[T any](c *coder, s *[]T) []T {
	n := len(*s)
	c.count(&n, minBatchItem)
	if c.mode != encoding && n > maxBatch {
		c.fail("batch of %d items exceeds %d", n, maxBatch)
		n = 0
	}
	if c.mode != encoding {
		*s = slices.Grow((*s)[:0], n)[:n] // a walker's destination may have room
	}
	return *s
}

// batchRequest decodes every item's arguments into one allocation sized
// by their total: each item's Args is its window of it, capped so that an
// append cannot run into the next item's. A ref item is a copy of the item
// it repeats, sharing its arguments.
func (c *coder) batchRequest(r *BatchEvalRequest) {
	c.batch = true
	reqs := batchItems(c, &r.Requests)
	repeats := false
	for i := range reqs {
		switch {
		case c.mode == encoding:
			start := c.buf.Len()
			c.evalRequest(&reqs[i])
			c.endItem(r, i, start)
		case c.itemRef(i, i) == i:
			if tag := c.heldPrefix(); tag != 0 {
				if r.held == nil {
					r.held = make([]uint64, len(reqs))
				}
				r.held[i] = tag
			}
			c.evalRequest(&reqs[i])
		default:
			repeats = true
		}
	}
	if c.mode != decoding {
		return
	}
	all := make(Args, len(c.vals))
	copy(all, c.vals)
	for i := range reqs {
		if j := c.refs[i]; j != i {
			reqs[i] = reqs[j]
		} else if n := len(reqs[i].Args); n > 0 {
			reqs[i].Args, all = all[:n:n], all[n:]
		}
	}
	if repeats {
		r.refs = slices.Clone(c.refs)
	}
}

// batchItem is one answer item. Its distribution, if it has one, is laid
// out from or into dist rather than it.Dist, and batchItem reports whether
// it had one: the caller attaches it, so a walker's scratch dist is never
// stored anywhere (which would move it to the heap).
func (c *coder) batchItem(it *BatchEvalItem, dist *WireDist) (hasDist bool) {
	hasDist = it.Dist != nil && !it.held
	c.name(&it.Interface)
	c.u64(&it.Version)
	c.name(&it.Method)
	c.name(&it.Mode)
	c.count(&it.Status, 0) // a plain uint32
	c.str(&it.Error)
	c.flags(&it.Cached, &it.Coalesced, &it.Peer, &it.Deduped, &hasDist, &it.held)
	if it.held && (hasDist || it.Status != http.StatusOK) {
		c.fail("held answer item with status %d or a distribution", it.Status)
	}
	if hasDist {
		c.wireDist(dist)
	}
	return hasDist
}

// batchResponse decodes the WireDist structs of the items that carry one
// into one exactly sized array, a ref or held item taking no slot: a
// caller that keeps one item's Dist pointer keeps 96 bytes for each
// answer of the batch that carried a distribution. They are decoded into
// the coder's scratch first, as their count is known only at the end. The
// float vectors are not pooled the same way — one backing array would let
// a single kept answer pin every vector of its batch (≈ 450 KB for 256
// items) — so each answer's pair is its own allocation.
//
// An answer ref decodes to a copy of the item it repeats, flagged Deduped,
// whose Dist is the same pointer. A held item has no Dist; r.refs then
// keeps what each item copies, for the client's batchHolds.settle.
func (c *coder) batchResponse(r *BatchEvalResponse) {
	c.batch = true
	items := batchItems(c, &r.Results)
	var dist WireDist
	for i := range items {
		to := i
		if r.refs != nil {
			to = r.refs[i]
		}
		if j := c.itemRef(i, to); j != i {
			if c.mode == decoding {
				items[i] = items[j]
				items[i].Deduped = true
			}
			continue
		}
		if c.mode != decoding {
			c.batchItem(&items[i], items[i].Dist)
		} else if c.batchItem(&items[i], &dist) {
			c.dists = append(c.dists, dist)
			items[i].Dist, dist = &c.dists[len(c.dists)-1], WireDist{} // set only to say it has one
		}
	}
	if c.mode != decoding {
		return
	}
	dists := slices.Clone(c.dists)
	for i := range items {
		if j := c.refs[i]; j != i {
			items[i].Dist = items[j].Dist
		} else if items[i].Dist != nil {
			items[i].Dist, dists = &dists[0], dists[1:]
		}
	}
	if slices.ContainsFunc(items, func(it BatchEvalItem) bool { return it.held }) {
		r.refs = slices.Clone(c.refs)
	}
}

// cacheLookupRequest decodes the keys as substrings of one copy of the
// frame: a peer only reads its memo with them.
func (c *coder) cacheLookupRequest(r *CacheLookupRequest) {
	keys := seq(c, &r.Keys, minKey)
	if c.mode != decoding || len(keys) == 0 {
		for i := range keys {
			c.str(&keys[i])
		}
	} else {
		base, rest := c.off, string(c.data[c.off:])
		for i := range keys {
			b := c.raw(1)
			end := c.off - base
			keys[i] = rest[end-len(b) : end]
		}
	}
	if c.tail(r.Summary) {
		c.flags(&r.Summary)
	}
}

func (c *coder) cacheLookupResponse(r *CacheLookupResponse) {
	c.str(&r.Node)
	results := seq(c, &r.Results, minResult)
	for i := range results {
		res := &results[i]
		hasDist := res.Dist != nil
		// Found and the distribution take batchItem's cached and has-dist bits.
		c.flags(&res.Found, nil, nil, nil, &hasDist)
		if hasDist {
			c.wireDist(optional(c, &res.Dist))
		}
	}
	if c.tail(r.Summary != nil) {
		c.fingerprints(&r.Summary)
	}
}

// tail reports whether a probe frame's optional last field is laid out:
// encoding, when it is present; reading, when bytes are left.
func (c *coder) tail(present bool) bool {
	if c.mode == encoding {
		return present
	}
	return !c.failed() && c.off < len(c.data)
}

// fingerprints lays out a memo summary: a count, then uint32s, strictly
// ascending (the decoder checks: the asker binary-searches them).
func (c *coder) fingerprints(p *[]uint32) {
	fps := seq(c, p, minFingerprint)
	if c.mode == decoding && fps == nil {
		*p = []uint32{}
	}
	for i := range fps {
		if c.mode == encoding {
			c.buf.Write(binary.LittleEndian.AppendUint32(c.scratch[:0], fps[i]))
			continue
		}
		if b := c.take(4); b != nil {
			fps[i] = binary.LittleEndian.Uint32(b)
		}
		if i > 0 && fps[i] <= fps[i-1] && !c.failed() {
			c.fail("summary fingerprints not strictly ascending at %d", i)
		}
	}
}

// snapshot is the cache snapshot file: the node ID, the memo entries, the
// layer entries, and a CRC-32 (IEEE) of everything before it.
func (c *coder) snapshot(s *CacheSnapshot) {
	c.str(&s.NodeID)
	memo := seq(c, &s.Memo, minMemoEntry)
	for i := range memo {
		c.str(&memo[i].Key)
		c.floats(&memo[i].Support)
		c.floats(&memo[i].Probs)
	}
	layer := seq(c, &s.Layer, minLayerEntry)
	for i := range layer {
		c.str(&layer[i].Key)
		c.f64(&layer[i].Joules)
	}
	laidOut := c.data[:c.off]
	if c.mode == encoding {
		laidOut = c.buf.Bytes()[c.start:]
	}
	sum := crc32.ChecksumIEEE(laidOut)
	stored := int(sum)
	c.count(&stored, 0)
	if c.mode != encoding && !c.failed() && uint32(stored) != sum {
		c.fail("snapshot checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
}

// --- exported frame functions ---

// EncodeEvalRequest appends the binary frame for req to buf.
func EncodeEvalRequest(buf *bytes.Buffer, req *EvalRequest) error {
	return EvalEndpoint.Request.Encode(buf, BinaryContentType, req)
}

// DecodeEvalRequest parses a binary eval-request frame.
func DecodeEvalRequest(data []byte) (*EvalRequest, error) {
	return EvalEndpoint.Request.Decode(BinaryContentType, data)
}

// EncodeEvalResponse appends the binary frame for resp to buf.
func EncodeEvalResponse(buf *bytes.Buffer, resp *EvalResponse) error {
	return EvalEndpoint.Response.Encode(buf, BinaryContentType, resp)
}

// DecodeEvalResponse parses a binary eval-response frame.
func DecodeEvalResponse(data []byte) (*EvalResponse, error) {
	return EvalEndpoint.Response.Decode(BinaryContentType, data)
}

// EncodeBatchEvalRequest appends the binary frame for req to buf.
func EncodeBatchEvalRequest(buf *bytes.Buffer, req *BatchEvalRequest) error {
	return EvalBatchEndpoint.Request.Encode(buf, BinaryContentType, req)
}

// DecodeBatchEvalRequest parses a binary batch-request frame.
func DecodeBatchEvalRequest(data []byte) (*BatchEvalRequest, error) {
	return EvalBatchEndpoint.Request.Decode(BinaryContentType, data)
}

// EncodeBatchEvalResponse appends the binary frame for resp to buf.
func EncodeBatchEvalResponse(buf *bytes.Buffer, resp *BatchEvalResponse) error {
	return EvalBatchEndpoint.Response.Encode(buf, BinaryContentType, resp)
}

// DecodeBatchEvalResponse parses a binary batch-response frame.
func DecodeBatchEvalResponse(data []byte) (*BatchEvalResponse, error) {
	return EvalBatchEndpoint.Response.Decode(BinaryContentType, data)
}

// BeginBatchEvalRequest appends the part of a batch-request frame that
// precedes its n items. A full item carries no cross-item state, so the
// frame is this followed by the items' encodings, whoever wrote them, and
// the refs (AppendBatchRef) to the earlier ones that repeat.
func BeginBatchEvalRequest(buf *bytes.Buffer, n int) { beginBatch(buf, kindBatchRequest, n) }

// BeginBatchEvalResponse is BeginBatchEvalRequest for the answer frame.
func BeginBatchEvalResponse(buf *bytes.Buffer, n int) { beginBatch(buf, kindBatchResponse, n) }

func beginBatch(buf *bytes.Buffer, kind byte, n int) {
	c := newCoder(encoding, buf, nil)
	c.header(kind)
	c.count(&n, 0)
	c.release()
}

// BatchHeaderLen is how many bytes the two Begin functions append.
const BatchHeaderLen = len(binMagic) + 1 + 4

// AppendBatchEvalError appends to an answer frame the item that refuses
// one request item (a range WalkBatchEvalRequest yielded, held or not)
// with status and msg, naming the interface and method the request named.
func AppendBatchEvalError(buf *bytes.Buffer, reqItem []byte, status int, msg string) {
	if binary.LittleEndian.Uint32(reqItem) == heldMarker {
		reqItem = reqItem[HeldPrefixLen:]
	}
	iface, method, _ := headNames(reqItem)
	it := BatchEvalItem{Interface: string(iface), Method: string(method), Status: status, Error: msg}
	c := newCoder(encoding, buf, nil)
	c.batchItem(&it, nil)
	c.release()
}

// --- frame walkers ---
//
// The fleet router forwards evaluation traffic it never needs as Go
// values: it must know where each batch item starts and ends, which stack
// it names and which replica it should warm — nothing else. The walkers
// answer that from the frame itself, by running the layouts in walk mode
// (the same magic, kind, count, nesting-depth, unknown-tag and
// trailing-byte rules as decoding), so a walker accepts exactly the frames
// the matching Decode function accepts and allocates nothing per item.
// FuzzFrameWalk holds the two to that.

// FrameItem is one item of a walked frame: its byte range, and — aliasing
// the frame, so valid only while the frame is — the interface name it
// starts with.
type FrameItem struct {
	Off, End  int // the item is frame[Off:End]
	Interface []byte
	// Spread fingerprints a request item so that identical requests pick
	// the same replica of their stack while distinct ones fan over all of
	// them; zero for answer items. It is FNV-1a, finished like Hash64,
	// over these bytes of the item in wire order: the method and mode
	// strings with their length prefixes, the 8 seed bytes, and everything
	// from the argument count to the item's end (the args and fixed
	// sections). samples, enum_limit, parallelism and deadline_ms are left
	// out, so requests differing only in those share a replica (samples
	// and enum_limit still key memo entries apart, see appendKeyHead).
	// EncodeEvalRequest is canonical, so requests that decode alike
	// fingerprint alike in either codec, alone or inside a batch.
	Spread uint64
	// Ref is, for a ref item, one more than the index of the item it
	// repeats, whose Interface and Spread it carries; 0 for a full item.
	Ref int
	// Held: the item's first HeldPrefixLen bytes are a held prefix, which Interface and Spread skip.
	Held bool
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvFold[B string | []byte](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// fnvFinish is the splitmix64 finalizer.
func fnvFinish(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Hash64 is FNV-1a with a splitmix64 finalizer. FNV alone clusters badly
// for short suffix-varying strings (node-1#0, node-1#1, ...); the
// finalizer's avalanche spreads them uniformly.
func Hash64(s string) uint64 { return fnvFinish(fnvFold(fnvOffset, s)) }

// item is the walked item that began at off: its range, and the interface
// name both kinds of item start with.
func (c *coder) item(off int) FrameItem {
	it := FrameItem{Off: off, End: c.off}
	if !c.failed() {
		n := int(binary.LittleEndian.Uint32(c.data[off:]))
		it.Interface = c.data[off+4 : off+4+n]
	}
	return it
}

// headNames returns the names a walked request head begins with.
func headNames(head []byte) (iface, method, mode []byte) {
	next := func() []byte {
		n := binary.LittleEndian.Uint32(head)
		name := head[4 : 4+n]
		head = head[4+n:]
		return name
	}
	return next(), next(), next()
}

// walkRequest is evalRequest in walk mode, restated because the
// fingerprint folds the bytes between its fields. It is the one place
// besides evalRequest that knows the request's field order; FuzzFrameWalk
// holds the two to each other.
func (c *coder) walkRequest() FrameItem {
	var r EvalRequest // walking keeps only the fixed-width fields
	off := c.off
	c.name(&r.Interface)
	mark := c.off
	c.name(&r.Method)
	c.name(&r.Mode)
	h := fnvFold(fnvOffset, c.data[mark:c.off])
	c.int(&r.Samples)
	mark = c.off
	c.i64(&r.Seed)
	h = fnvFold(h, c.data[mark:c.off])
	c.int(&r.EnumLimit)
	c.int(&r.Parallelism)
	c.int(&r.DeadlineMs)
	mark = c.off
	c.args(&r.Args)
	c.fixed(&r.Fixed)
	it := c.item(off)
	it.Spread = fnvFinish(fnvFold(h, c.data[mark:c.off]))
	return it
}

// walkAnswer is batchItem in walk mode.
func (c *coder) walkAnswer() FrameItem {
	var it BatchEvalItem
	var dist WireDist
	off := c.off
	c.batchItem(&it, &dist)
	return c.item(off)
}

// walkBatch walks a frame of the given batch kind into items, reusing its
// array if it has room.
func walkBatch(items []FrameItem, frame []byte, kind byte, item func(*coder) FrameItem) ([]FrameItem, error) {
	c := newCoder(walking, nil, frame)
	c.header(kind)
	batchItems(c, &items)
	for i := 0; i < len(items) && !c.failed(); i++ {
		off := c.off
		if j := c.itemRef(i, i); j != i {
			items[i] = FrameItem{Off: off, End: c.off, Interface: items[j].Interface, Spread: items[j].Spread, Ref: j + 1}
			continue
		}
		held := kind == kindBatchRequest && c.heldPrefix() != 0
		items[i] = item(c)
		items[i].Off, items[i].Held = off, held // a held item's range takes in its prefix
	}
	c.done()
	if err := c.release(); err != nil {
		return nil, err
	}
	return items, nil
}

// WalkEvalRequest walks a binary eval-request frame.
func WalkEvalRequest(frame []byte) (FrameItem, error) {
	c := newCoder(walking, nil, frame)
	c.header(kindEvalRequest)
	it := c.walkRequest()
	c.done()
	return it, c.release()
}

// WalkBatchEvalRequest walks a binary batch-request frame into items (nil,
// or an array to reuse): one FrameItem per request, in order. The ranges
// tile the frame after its
// BatchHeaderLen-byte head, and any of them, concatenated in any order
// after BeginBatchEvalRequest, are the frame of that batch — with each
// ref rewritten (AppendBatchRef) to where its item now sits, which must be
// before it.
func WalkBatchEvalRequest(items []FrameItem, frame []byte) ([]FrameItem, error) {
	return walkBatch(items, frame, kindBatchRequest, (*coder).walkRequest)
}

// WalkBatchEvalResponse is WalkBatchEvalRequest for the answer frame
// (Begin with BeginBatchEvalResponse; Spread is zero).
func WalkBatchEvalResponse(items []FrameItem, frame []byte) ([]FrameItem, error) {
	return walkBatch(items, frame, kindBatchResponse, (*coder).walkAnswer)
}
