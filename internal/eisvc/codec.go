package eisvc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
// Negotiation: a client that sets Client.Binary sends its request body
// as BinaryContentType and offers the same in Accept; the server decodes
// by Content-Type and answers binary only when Accept asks for it.
// Errors are always JSON (ErrorResponse) — the debug path must stay
// readable exactly when something went wrong. This file is only the
// byte layouts; which codec a given body is in, and which the caller
// wants back, is decided in endpoint.go.

// BinaryContentType is the negotiated media type of the binary codec.
const BinaryContentType = "application/x-eisvc-bin"

// binVersion is the codec format version carried in the magic header.
// Bump it on any layout change a stored file or a foreign client could
// meet; decoders reject other versions. (The two cache-probe kinds became
// key lists without a bump: only same-build fleet peers exchange them,
// and a frame in the other layout fails to decode — a failed probe is a
// miss.)
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
	kindOptimizeRequest
	kindOptimizeResponse
)

// IsBinaryContentType reports whether a Content-Type (or Accept) header
// value names the binary codec, ignoring any media-type parameters.
func IsBinaryContentType(v string) bool {
	if i := bytes.IndexByte([]byte(v), ';'); i >= 0 {
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

// --- encoder ---

// benc appends the wire primitives to a bytes.Buffer. The scratch array
// keeps every fixed-width write allocation-free.
type benc struct {
	buf     *bytes.Buffer
	scratch [8]byte
}

func (e *benc) u8(v byte) { e.buf.WriteByte(v) }

func (e *benc) u32(v uint32) {
	s := e.scratch[:4]
	s[0], s[1], s[2], s[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	e.buf.Write(s)
}

func (e *benc) u64(v uint64) {
	s := e.scratch[:8]
	for i := 0; i < 8; i++ {
		s[i] = byte(v >> (8 * i))
	}
	e.buf.Write(s)
}

func (e *benc) i64(v int64)   { e.u64(uint64(v)) }
func (e *benc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *benc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf.WriteString(s)
}

// floats writes a length-prefixed vector in one piece: the buffer grows
// once and the elements are stored straight into its tail.
func (e *benc) floats(xs []float64) {
	e.u32(uint32(len(xs)))
	b := e.buf.AvailableBuffer()
	if n := 8 * len(xs); cap(b) < n {
		e.buf.Grow(n)
		b = e.buf.AvailableBuffer()
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	e.buf.Write(b)
}

func (e *benc) header(kind byte) {
	e.buf.Write(binMagic[:])
	e.u8(kind)
}

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

// value encodes one core.Value (what EvalRequest.Args and .Fixed hold).
// Record keys are written in sorted order so the encoding is deterministic.
func (e *benc) value(v core.Value) {
	switch v.Kind() {
	case core.KindNil:
		e.u8(tagNil)
	case core.KindBool:
		if b, _ := v.AsBool(); b {
			e.u8(tagTrue)
		} else {
			e.u8(tagFalse)
		}
	case core.KindNum:
		n, _ := v.AsNum()
		e.u8(tagNum)
		e.f64(n)
	case core.KindStr:
		s, _ := v.AsStr()
		e.u8(tagStr)
		e.str(s)
	case core.KindList:
		e.u8(tagList)
		e.u32(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			item, _ := v.Index(i)
			e.value(item)
		}
	case core.KindRecord:
		names := v.FieldNames() // sorted
		e.u8(tagRecord)
		e.u32(uint32(len(names)))
		for _, k := range names {
			f, _ := v.Field(k)
			e.str(k)
			e.value(f)
		}
	}
}

// --- decoder ---

// bdec walks a binary frame. The first malformed read latches err;
// every later read is a cheap no-op returning zeroes, so decode methods
// read straight through and check err once. Truncated input is always
// an error, never a panic — the decoders face network bytes.
type bdec struct {
	data []byte
	off  int
	err  error
	// intern, when non-nil, shares the strings a batch repeats (see name).
	intern map[string]string
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("eisvc: binary codec: "+format, args...)
	}
}

func (d *bdec) remaining() int { return len(d.data) - d.off }

func (d *bdec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *bdec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	b := d.data[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *bdec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	var v uint64
	b := d.data[d.off:]
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	d.off += 8
	return v
}

func (d *bdec) i64() int64   { return int64(d.u64()) }
func (d *bdec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a uint32 length prefix and sanity-checks it against the
// bytes actually remaining (each counted element costs at least min
// bytes), so a corrupted length cannot drive a huge allocation.
func (d *bdec) count(min int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if min > 0 && n > d.remaining()/min {
		d.fail("count %d exceeds remaining input", n)
		return 0
	}
	return n
}

// strBytes reads a length-prefixed string without copying it: the result
// aliases the frame and is valid only as long as the frame is.
func (d *bdec) strBytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *bdec) str() string { return string(d.strBytes()) } // copies; frame buffer is pooled

// Bounds of a batch decode's intern table: a hostile frame can pin at
// most maxInternEntries * maxInternLen bytes through it, for the life of
// one decode.
const (
	maxInternEntries = 64
	maxInternLen     = 64
)

// name reads a string that the items of a batch repeat — interface,
// method, mode, record and fixed-ECV keys: 256 items drawn from three
// stacks share one copy of each instead of allocating 256. The single-
// message decoders leave intern nil, and name is str.
func (d *bdec) name() string {
	b := d.strBytes()
	if d.intern == nil || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok { // no allocation: the conversion is a lookup key only
		return s
	}
	s := string(b)
	if len(d.intern) < maxInternEntries {
		d.intern[s] = s
	}
	return s
}

// skip advances past n bytes a walker has no use for.
func (d *bdec) skip(n int) {
	if d.err != nil {
		return
	}
	if d.remaining() < n {
		d.fail("truncated at byte %d", d.off)
		return
	}
	d.off += n
}

func (d *bdec) floats() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	b := d.data[d.off : d.off+8*n] // count(8) checked that n elements remain
	d.off += 8 * n
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// maxValueDepth bounds value nesting so hostile input cannot overflow
// the stack through recursive lists/records.
const maxValueDepth = 64

func (d *bdec) value(depth int) core.Value {
	if d.err != nil {
		return core.Nil()
	}
	if depth > maxValueDepth {
		d.fail("value nesting exceeds %d", maxValueDepth)
		return core.Nil()
	}
	switch tag := d.u8(); tag {
	case tagNil:
	case tagFalse:
		return core.Bool(false)
	case tagTrue:
		return core.Bool(true)
	case tagNum:
		return core.Num(d.f64())
	case tagStr:
		return core.Str(d.str())
	case tagList:
		n := d.count(1)
		if d.err != nil {
			return core.Nil()
		}
		items := make([]core.Value, n)
		for i := range items {
			items[i] = d.value(depth + 1)
		}
		return core.List(items...)
	case tagRecord:
		n := d.count(2)
		if d.err != nil {
			return core.Nil()
		}
		fields := make(map[string]core.Value, n)
		for i := 0; i < n; i++ {
			k := d.name()
			fields[k] = d.value(depth + 1)
		}
		return core.Record(fields)
	default:
		d.fail("unknown value tag %d", tag)
	}
	return core.Nil()
}

// header consumes and validates the frame magic and kind byte.
func (d *bdec) header(kind byte) {
	if d.remaining() < len(binMagic)+1 {
		d.fail("truncated header")
		return
	}
	if !bytes.Equal(d.data[d.off:d.off+3], binMagic[:3]) {
		d.fail("bad magic")
		return
	}
	if v := d.data[d.off+3]; v != binVersion {
		d.fail("unsupported format version %d (want %d)", v, binVersion)
		return
	}
	d.off += 4
	if got := d.u8(); d.err == nil && got != kind {
		d.fail("unexpected message kind %d (want %d)", got, kind)
	}
}

// done errors unless the frame was consumed exactly.
func (d *bdec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("eisvc: binary codec: %d trailing byte(s)", d.remaining())
	}
	return nil
}

// --- wire payloads ---

// wireDist encodes the full WireDist: the exact vectors plus the derived
// summary stats, so a binary client never recomputes quantiles.
func (e *benc) wireDist(w *WireDist) {
	e.floats(w.Support)
	e.floats(w.Probs)
	e.f64(w.Mean)
	e.f64(w.Std)
	e.f64(w.Min)
	e.f64(w.Max)
	e.f64(w.P99)
}

func (d *bdec) wireDist() WireDist {
	var w WireDist
	w.Support = d.floats()
	w.Probs = d.floats()
	w.Mean = d.f64()
	w.Std = d.f64()
	w.Min = d.f64()
	w.Max = d.f64()
	w.P99 = d.f64()
	return w
}

// evalRequestBody encodes the request payload without the frame header,
// shared by the single and batch encodings.
func (e *benc) evalRequestBody(req *EvalRequest) {
	e.str(req.Interface)
	e.str(req.Method)
	e.str(req.Mode)
	e.i64(int64(req.Samples))
	e.i64(req.Seed)
	e.i64(int64(req.EnumLimit))
	e.i64(int64(req.Parallelism))
	e.i64(int64(req.DeadlineMs))
	e.u32(uint32(len(req.Args)))
	for _, a := range req.Args {
		e.value(a)
	}
	e.u32(uint32(len(req.Fixed)))
	if len(req.Fixed) > 0 {
		keys := make([]string, 0, len(req.Fixed))
		for k := range req.Fixed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e.str(k)
			e.value(req.Fixed[k])
		}
	}
}

func (d *bdec) evalRequestBody() EvalRequest {
	var req EvalRequest
	req.Interface = d.name()
	req.Method = d.name()
	req.Mode = d.name()
	req.Samples = int(d.i64())
	req.Seed = d.i64()
	req.EnumLimit = int(d.i64())
	req.Parallelism = int(d.i64())
	req.DeadlineMs = int(d.i64())
	if n := d.count(1); d.err == nil && n > 0 {
		req.Args = make(Args, n)
		for i := range req.Args {
			req.Args[i] = d.value(0)
		}
	}
	if n := d.count(2); d.err == nil && n > 0 {
		req.Fixed = make(Fixed, n)
		for i := 0; i < n; i++ {
			k := d.name()
			req.Fixed[k] = d.value(0)
		}
	}
	return req
}

// EncodeEvalRequest appends the binary frame for req to buf.
func EncodeEvalRequest(buf *bytes.Buffer, req *EvalRequest) error {
	e := &benc{buf: buf}
	e.header(kindEvalRequest)
	e.evalRequestBody(req)
	return nil
}

// DecodeEvalRequest parses a binary eval-request frame.
func DecodeEvalRequest(data []byte) (*EvalRequest, error) {
	d := &bdec{data: data}
	d.header(kindEvalRequest)
	req := d.evalRequestBody()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Response flag bits.
const (
	flagCached byte = 1 << iota
	flagCoalesced
	flagPeer
	flagDeduped
	flagHasDist
)

// EncodeEvalResponse appends the binary frame for resp to buf.
func EncodeEvalResponse(buf *bytes.Buffer, resp *EvalResponse) error {
	e := &benc{buf: buf}
	e.header(kindEvalResponse)
	e.str(resp.Interface)
	e.u64(resp.Version)
	e.str(resp.Method)
	e.str(resp.Mode)
	e.str(resp.Node)
	var flags byte
	if resp.Cached {
		flags |= flagCached
	}
	if resp.Coalesced {
		flags |= flagCoalesced
	}
	if resp.Peer {
		flags |= flagPeer
	}
	e.u8(flags)
	e.wireDist(&resp.Dist)
	return nil
}

// DecodeEvalResponse parses a binary eval-response frame.
func DecodeEvalResponse(data []byte) (*EvalResponse, error) {
	d := &bdec{data: data}
	d.header(kindEvalResponse)
	var resp EvalResponse
	resp.Interface = d.str()
	resp.Version = d.u64()
	resp.Method = d.str()
	resp.Mode = d.str()
	resp.Node = d.str()
	flags := d.u8()
	resp.Cached = flags&flagCached != 0
	resp.Coalesced = flags&flagCoalesced != 0
	resp.Peer = flags&flagPeer != 0
	resp.Dist = d.wireDist()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// The least a batch item can occupy — its fixed-width fields and empty
// length prefixes — is what a batch's item count is checked against, so a
// corrupt count cannot drive an allocation larger than the frame itself
// justifies. The decoders and the walkers share the bounds.
const (
	minRequestItemBytes  = 3*4 + 5*8 + 2*4 // three strings, five i64s, two counts
	minResponseItemBytes = 4*4 + 8 + 4 + 1 // four strings, version, status, flags
)

// BeginBatchEvalRequest appends the part of a batch-request frame that
// precedes its n items. Items carry no cross-item state, so the frame is
// this followed by the items' encodings, whoever wrote them.
func BeginBatchEvalRequest(buf *bytes.Buffer, n int) { beginBatch(buf, kindBatchRequest, n) }

// BeginBatchEvalResponse is BeginBatchEvalRequest for the answer frame.
func BeginBatchEvalResponse(buf *bytes.Buffer, n int) { beginBatch(buf, kindBatchResponse, n) }

func beginBatch(buf *bytes.Buffer, kind byte, n int) {
	e := &benc{buf: buf}
	e.header(kind)
	e.u32(uint32(n))
}

// BatchHeaderLen is how many bytes the two Begin functions append.
const BatchHeaderLen = len(binMagic) + 1 + 4

// EncodeBatchEvalRequest appends the binary frame for req to buf.
func EncodeBatchEvalRequest(buf *bytes.Buffer, req *BatchEvalRequest) error {
	BeginBatchEvalRequest(buf, len(req.Requests))
	e := &benc{buf: buf}
	for i := range req.Requests {
		e.evalRequestBody(&req.Requests[i])
	}
	return nil
}

// DecodeBatchEvalRequest parses a binary batch-request frame.
func DecodeBatchEvalRequest(data []byte) (*BatchEvalRequest, error) {
	d := &bdec{data: data, intern: map[string]string{}}
	d.header(kindBatchRequest)
	var req BatchEvalRequest
	if n := d.count(minRequestItemBytes); d.err == nil && n > 0 {
		req.Requests = make([]EvalRequest, n)
		for i := range req.Requests {
			req.Requests[i] = d.evalRequestBody()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (e *benc) batchItem(it *BatchEvalItem) {
	e.str(it.Interface)
	e.u64(it.Version)
	e.str(it.Method)
	e.str(it.Mode)
	e.u32(uint32(it.Status))
	e.str(it.Error)
	var flags byte
	if it.Cached {
		flags |= flagCached
	}
	if it.Coalesced {
		flags |= flagCoalesced
	}
	if it.Peer {
		flags |= flagPeer
	}
	if it.Deduped {
		flags |= flagDeduped
	}
	if it.Dist != nil {
		flags |= flagHasDist
	}
	e.u8(flags)
	if it.Dist != nil {
		e.wireDist(it.Dist)
	}
}

// batchItem decodes one answer item; its distribution, if it has one, goes
// into *dist and the item points there.
func (d *bdec) batchItem(dist *WireDist) BatchEvalItem {
	var it BatchEvalItem
	it.Interface = d.name()
	it.Version = d.u64()
	it.Method = d.name()
	it.Mode = d.name()
	it.Status = int(d.u32())
	it.Error = d.str()
	flags := d.u8()
	it.Cached = flags&flagCached != 0
	it.Coalesced = flags&flagCoalesced != 0
	it.Peer = flags&flagPeer != 0
	it.Deduped = flags&flagDeduped != 0
	if flags&flagHasDist != 0 {
		*dist = d.wireDist()
		it.Dist = dist
	}
	return it
}

// EncodeBatchEvalResponse appends the binary frame for resp to buf.
func EncodeBatchEvalResponse(buf *bytes.Buffer, resp *BatchEvalResponse) error {
	BeginBatchEvalResponse(buf, len(resp.Results))
	e := &benc{buf: buf}
	for i := range resp.Results {
		e.batchItem(&resp.Results[i])
	}
	return nil
}

// DecodeBatchEvalResponse parses a binary batch-response frame. The items'
// WireDist structs share one array: a caller that keeps one item's Dist
// pointer keeps 88 bytes an item of the batch. The float vectors are not
// pooled the same way — one backing array would let a single kept answer
// pin every vector of its batch (≈ 450 KB for 256 items) — so each is its
// own allocation.
func DecodeBatchEvalResponse(data []byte) (*BatchEvalResponse, error) {
	d := &bdec{data: data, intern: map[string]string{}}
	d.header(kindBatchResponse)
	var resp BatchEvalResponse
	if n := d.count(minResponseItemBytes); d.err == nil && n > 0 {
		resp.Results = make([]BatchEvalItem, n)
		dists := make([]WireDist, n)
		for i := range resp.Results {
			resp.Results[i] = d.batchItem(&dists[i])
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// --- frame walkers ---
//
// The fleet router forwards evaluation traffic it never needs as Go
// values: it must know where each batch item starts and ends, which stack
// it names and which replica it should warm — nothing else. The walkers
// answer that from the frame itself, through the same bdec primitives as
// the decoders (the same magic, kind, count, nesting-depth, unknown-tag
// and trailing-byte rules), so a walker accepts exactly the frames the
// matching Decode function accepts and allocates nothing per item.
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
	// out: they do not change which memo entry answers. EncodeEvalRequest
	// is canonical, so requests that decode alike fingerprint alike in
	// either codec, alone or inside a batch.
	Spread uint64
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

// skipValue is value without the materialising.
func (d *bdec) skipValue(depth int) {
	if d.err != nil {
		return
	}
	if depth > maxValueDepth {
		d.fail("value nesting exceeds %d", maxValueDepth)
		return
	}
	switch tag := d.u8(); tag {
	case tagNil, tagFalse, tagTrue:
	case tagNum:
		d.skip(8)
	case tagStr:
		d.strBytes()
	case tagList:
		for n := d.count(1); n > 0 && d.err == nil; n-- {
			d.skipValue(depth + 1)
		}
	case tagRecord:
		for n := d.count(2); n > 0 && d.err == nil; n-- {
			d.strBytes()
			d.skipValue(depth + 1)
		}
	default:
		d.fail("unknown value tag %d", tag)
	}
}

func (d *bdec) skipFloats() { d.skip(8 * d.count(8)) }

// walkRequestItem is evalRequestBody without the materialising.
func (d *bdec) walkRequestItem() FrameItem {
	it := FrameItem{Off: d.off}
	it.Interface = d.strBytes()
	mark := d.off
	d.strBytes() // method
	d.strBytes() // mode
	h := fnvFold(fnvOffset, d.data[mark:d.off])
	d.skip(8) // samples
	mark = d.off
	d.skip(8) // seed
	h = fnvFold(h, d.data[mark:d.off])
	d.skip(3 * 8) // enum_limit, parallelism, deadline_ms
	mark = d.off
	for n := d.count(1); n > 0 && d.err == nil; n-- {
		d.skipValue(0)
	}
	for n := d.count(2); n > 0 && d.err == nil; n-- {
		d.strBytes()
		d.skipValue(0)
	}
	it.Spread = fnvFinish(fnvFold(h, d.data[mark:d.off]))
	it.End = d.off
	return it
}

// walkResponseItem is batchItem without the materialising.
func (d *bdec) walkResponseItem() FrameItem {
	it := FrameItem{Off: d.off}
	it.Interface = d.strBytes()
	d.skip(8)    // version
	d.strBytes() // method
	d.strBytes() // mode
	d.skip(4)    // status
	d.strBytes() // error
	if d.u8()&flagHasDist != 0 {
		d.skipFloats()
		d.skipFloats()
		d.skip(5 * 8) // mean, std, min, max, p99
	}
	it.End = d.off
	return it
}

// walkBatch walks a frame of the given batch kind.
func walkBatch(frame []byte, kind byte, minItem int, item func(*bdec) FrameItem) ([]FrameItem, error) {
	d := &bdec{data: frame}
	d.header(kind)
	var items []FrameItem
	if n := d.count(minItem); d.err == nil && n > 0 {
		items = make([]FrameItem, n)
		for i := 0; i < n && d.err == nil; i++ {
			items[i] = item(d)
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return items, nil
}

// WalkEvalRequest walks a binary eval-request frame.
func WalkEvalRequest(frame []byte) (FrameItem, error) {
	d := &bdec{data: frame}
	d.header(kindEvalRequest)
	it := d.walkRequestItem()
	return it, d.done()
}

// WalkBatchEvalRequest walks a binary batch-request frame: one FrameItem
// per request, in order. The ranges tile the frame after its
// BatchHeaderLen-byte head, and any of them, concatenated in any order
// after BeginBatchEvalRequest, are the frame of that batch.
func WalkBatchEvalRequest(frame []byte) ([]FrameItem, error) {
	return walkBatch(frame, kindBatchRequest, minRequestItemBytes, (*bdec).walkRequestItem)
}

// WalkBatchEvalResponse is WalkBatchEvalRequest for the answer frame
// (Begin with BeginBatchEvalResponse; Spread is zero).
func WalkBatchEvalResponse(frame []byte) ([]FrameItem, error) {
	return walkBatch(frame, kindBatchResponse, minResponseItemBytes, (*bdec).walkResponseItem)
}

// AppendBatchEvalError appends to an answer frame the item that refuses
// one request item (a range WalkBatchEvalRequest yielded) with status and
// msg, naming the interface and method the request named.
func AppendBatchEvalError(buf *bytes.Buffer, reqItem []byte, status int, msg string) {
	d := &bdec{data: reqItem}
	it := BatchEvalItem{Interface: d.str(), Method: d.str(), Status: status, Error: msg}
	(&benc{buf: buf}).batchItem(&it)
}

// EncodeCacheLookupRequest appends the binary frame for req to buf.
func EncodeCacheLookupRequest(buf *bytes.Buffer, req *CacheLookupRequest) error {
	e := &benc{buf: buf}
	e.header(kindCacheLookupRequest)
	e.u32(uint32(len(req.Keys)))
	for _, k := range req.Keys {
		e.str(k)
	}
	return nil
}

// DecodeCacheLookupRequest parses a binary cache-probe frame.
func DecodeCacheLookupRequest(data []byte) (*CacheLookupRequest, error) {
	d := &bdec{data: data}
	d.header(kindCacheLookupRequest)
	var req CacheLookupRequest
	// Each key costs at least its length prefix.
	if n := d.count(4); d.err == nil && n > 0 {
		req.Keys = make([]string, n)
		for i := range req.Keys {
			req.Keys[i] = d.str()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeCacheLookupResponse appends the binary frame for resp to buf.
func EncodeCacheLookupResponse(buf *bytes.Buffer, resp *CacheLookupResponse) error {
	e := &benc{buf: buf}
	e.header(kindCacheLookupResponse)
	e.str(resp.Node)
	e.u32(uint32(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		var flags byte
		if r.Found {
			flags |= flagCached
		}
		if r.Dist != nil {
			flags |= flagHasDist
		}
		e.u8(flags)
		if r.Dist != nil {
			e.wireDist(r.Dist)
		}
	}
	return nil
}

// DecodeCacheLookupResponse parses a binary cache-probe answer.
func DecodeCacheLookupResponse(data []byte) (*CacheLookupResponse, error) {
	d := &bdec{data: data}
	d.header(kindCacheLookupResponse)
	var resp CacheLookupResponse
	resp.Node = d.str()
	// Each result costs at least its flag byte.
	if n := d.count(1); d.err == nil && n > 0 {
		resp.Results = make([]CacheLookupResult, n)
		for i := range resp.Results {
			flags := d.u8()
			resp.Results[i].Found = flags&flagCached != 0
			if flags&flagHasDist != 0 {
				w := d.wireDist()
				resp.Results[i].Dist = &w
			}
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// --- optimize payloads ---

func (e *benc) optimizeKnobs(knobs []OptimizeKnob) {
	e.u32(uint32(len(knobs)))
	for i := range knobs {
		e.str(knobs[i].Name)
		e.floats(knobs[i].Values)
	}
}

func (d *bdec) optimizeKnobs() []OptimizeKnob {
	// Each knob costs at least its two length prefixes.
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]OptimizeKnob, n)
	for i := range out {
		out[i].Name = d.str()
		out[i].Values = d.floats()
	}
	return out
}

func (e *benc) optimizePoint(p *OptimizePoint) {
	e.floats(p.Knobs)
	e.f64(p.EnergyJ)
	e.f64(p.LatencyMs)
}

func (d *bdec) optimizePoint() OptimizePoint {
	var p OptimizePoint
	p.Knobs = d.floats()
	p.EnergyJ = d.f64()
	p.LatencyMs = d.f64()
	return p
}

// EncodeOptimizeRequest appends the binary frame for req to buf.
func EncodeOptimizeRequest(buf *bytes.Buffer, req *OptimizeRequest) error {
	e := &benc{buf: buf}
	e.header(kindOptimizeRequest)
	e.str(req.Interface)
	e.str(req.EnergyMethod)
	e.str(req.LatencyMethod)
	e.str(req.Mode)
	e.f64(req.SLOMs)
	e.i64(int64(req.Samples))
	e.i64(req.Seed)
	e.i64(int64(req.EnumLimit))
	e.i64(int64(req.Parallelism))
	e.i64(int64(req.MaxConfigs))
	e.i64(int64(req.DeadlineMs))
	e.optimizeKnobs(req.Knobs)
	return nil
}

// DecodeOptimizeRequest parses a binary optimize-request frame.
func DecodeOptimizeRequest(data []byte) (*OptimizeRequest, error) {
	d := &bdec{data: data}
	d.header(kindOptimizeRequest)
	var req OptimizeRequest
	req.Interface = d.str()
	req.EnergyMethod = d.str()
	req.LatencyMethod = d.str()
	req.Mode = d.str()
	req.SLOMs = d.f64()
	req.Samples = int(d.i64())
	req.Seed = d.i64()
	req.EnumLimit = int(d.i64())
	req.Parallelism = int(d.i64())
	req.MaxConfigs = int(d.i64())
	req.DeadlineMs = int(d.i64())
	req.Knobs = d.optimizeKnobs()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Optimize-response flag bits (which optional points are present).
const (
	optFlagRecommended byte = 1 << iota
	optFlagMaxPerf
)

// EncodeOptimizeResponse appends the binary frame for resp to buf.
func EncodeOptimizeResponse(buf *bytes.Buffer, resp *OptimizeResponse) error {
	e := &benc{buf: buf}
	e.header(kindOptimizeResponse)
	e.str(resp.Interface)
	e.u64(resp.Version)
	e.str(resp.Mode)
	e.str(resp.Node)
	e.f64(resp.SLOMs)
	e.i64(int64(resp.Configs))
	e.i64(int64(resp.Evaluated))
	e.i64(int64(resp.Skipped))
	e.i64(int64(resp.Evals))
	e.i64(int64(resp.MemoServed))
	e.u64(resp.Digest)
	e.f64(resp.SavingsFrac)
	e.optimizeKnobs(resp.Knobs)
	e.u32(uint32(len(resp.Frontier)))
	for i := range resp.Frontier {
		e.optimizePoint(&resp.Frontier[i])
	}
	var flags byte
	if resp.Recommended != nil {
		flags |= optFlagRecommended
	}
	if resp.MaxPerf != nil {
		flags |= optFlagMaxPerf
	}
	e.u8(flags)
	if resp.Recommended != nil {
		e.optimizePoint(resp.Recommended)
	}
	if resp.MaxPerf != nil {
		e.optimizePoint(resp.MaxPerf)
	}
	return nil
}

// DecodeOptimizeResponse parses a binary optimize-response frame.
func DecodeOptimizeResponse(data []byte) (*OptimizeResponse, error) {
	d := &bdec{data: data}
	d.header(kindOptimizeResponse)
	var resp OptimizeResponse
	resp.Interface = d.str()
	resp.Version = d.u64()
	resp.Mode = d.str()
	resp.Node = d.str()
	resp.SLOMs = d.f64()
	resp.Configs = int(d.i64())
	resp.Evaluated = int(d.i64())
	resp.Skipped = int(d.i64())
	resp.Evals = int(d.i64())
	resp.MemoServed = int(d.i64())
	resp.Digest = d.u64()
	resp.SavingsFrac = d.f64()
	resp.Knobs = d.optimizeKnobs()
	// Each frontier point costs at least its knob-vector length prefix
	// plus the two objectives.
	if n := d.count(20); d.err == nil && n > 0 {
		resp.Frontier = make([]OptimizePoint, n)
		for i := range resp.Frontier {
			resp.Frontier[i] = d.optimizePoint()
		}
	}
	flags := d.u8()
	if flags&optFlagRecommended != 0 {
		p := d.optimizePoint()
		resp.Recommended = &p
	}
	if flags&optFlagMaxPerf != 0 {
		p := d.optimizePoint()
		resp.MaxPerf = &p
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}
