package eisvc

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"energyclarity/internal/core"
)

// The memo key's reference: what a node computed from a decoded request
// before it keyed items off their bytes (keyItem), kept verbatim as the
// oracle FuzzMemoKey and TestMemoKeyTable hold the key walk to.

// memoKey canonicalizes one evaluation request. Two requests map to the
// same key exactly when Interface.Eval is guaranteed to return the same
// distribution for both:
//
//   - the interface version is part of the key, so re-registering or
//     rebinding invalidates every older entry;
//   - arguments and pinned ECVs canonicalize through core.Value.Key
//     (pinned ECVs in sorted name order);
//   - EnumLimit and Samples are normalized to their defaults first, so an
//     explicit DefaultSamples and an omitted samples field collide;
//   - Parallelism is NOT part of the key: the evaluation engine produces
//     bit-identical distributions at every parallelism level, so answers
//     are shared across clients that ask with different worker counts;
//   - mode-irrelevant knobs are dropped (ModeFixed ignores seed, samples,
//     and the enumeration limit; ModeMonteCarlo ignores the enumeration
//     limit). The seed stays in the key for the enumeration modes because
//     they fall back to Monte Carlo beyond EnumLimit.
func memoKey(name string, version uint64, method string, args []core.Value, opts core.EvalOptions) string {
	var buf [192]byte
	return string(appendMemoKey(buf[:0], name, version, method, args, opts))
}

// appendMemoKey appends memoKey's bytes to dst, for a caller that builds
// many keys in one buffer (a batch). Peers exchange these keys and
// snapshots persist them: their bytes are a wire format.
func appendMemoKey(dst []byte, name string, version uint64, method string, args []core.Value, opts core.EvalOptions) []byte {
	samples := opts.Samples
	if samples <= 0 {
		samples = core.DefaultSamples
	}
	enumLimit := opts.EnumLimit
	if enumLimit <= 0 {
		enumLimit = core.DefaultEnumLimit
	}
	seed := opts.Seed
	switch opts.Mode {
	case core.ModeFixed:
		samples, enumLimit, seed = 0, 0, 0
	case core.ModeMonteCarlo:
		enumLimit = 0
	}

	dst = append(append(dst, name...), '@')
	dst = append(strconv.AppendUint(dst, version, 10), '|')
	dst = append(append(dst, method...), "|m"...)
	dst = append(strconv.AppendInt(dst, int64(opts.Mode), 10), "|s"...)
	dst = append(strconv.AppendInt(dst, int64(samples), 10), "|l"...)
	dst = append(strconv.AppendInt(dst, int64(enumLimit), 10), "|r"...)
	dst = append(strconv.AppendInt(dst, seed, 10), "|A["...)
	for _, a := range args {
		dst = append(a.AppendKey(dst), ';')
	}
	dst = append(dst, "]|F{"...)
	if len(opts.Fixed) > 0 {
		names := make([]string, 0, len(opts.Fixed))
		for qn := range opts.Fixed {
			names = append(names, qn)
		}
		sort.Strings(names)
		for _, qn := range names {
			dst = append(append(dst, qn...), '=')
			dst = append(opts.Fixed[qn].AppendKey(dst), ';')
		}
	}
	return append(dst, '}')
}

// Options converts the request into core.EvalOptions, as a node did
// before keyItem: the mode string through core.ParseMode.
func (req *EvalRequest) Options() (core.EvalOptions, error) {
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return core.EvalOptions{}, err
	}
	return core.EvalOptions{
		Mode:        mode,
		Fixed:       req.Fixed,
		EnumLimit:   req.EnumLimit,
		Samples:     req.Samples,
		Seed:        req.Seed,
		Parallelism: req.Parallelism,
	}, nil
}

// keyOutcome is what one request item keys to: its memo key, or the status
// and message it is refused with; and the names it is answered with.
type keyOutcome struct {
	key, name, method string
	status            int
	msg               string
}

// walkKeys keys every item of a request frame, alone or a batch, the way
// the handlers do (keyItem); a ref keys as the item it repeats.
func walkKeys(srv *Server, frame []byte, batch bool) ([]keyOutcome, error) {
	c := newCoder(keying, nil, frame)
	out := make([]keyOutcome, 1)
	if batch {
		c.header(kindBatchRequest)
		batchItems(c, &out)
	} else {
		c.header(kindEvalRequest)
	}
	for i := 0; i < len(out) && !c.failed(); i++ {
		if batch {
			if j := c.itemRef(i, i); j != i {
				out[i] = out[j]
				continue
			}
			c.heldPrefix()
		}
		var k keyedItem
		start := len(c.key)
		srv.keyItem(c, &k)
		out[i] = keyOutcome{key: string(c.key[start:]), name: k.name, method: k.method}
		if k.rej != nil {
			out[i].key, out[i].status, out[i].msg = "", k.rej.status, k.rej.msg
		}
	}
	c.done()
	return out, c.release()
}

// referenceKeys is walkKeys by the reference: decode the frame, check each
// request as a node did, and key it with memoKey.
func referenceKeys(srv *Server, frame []byte, batch bool) ([]keyOutcome, error) {
	var reqs []EvalRequest
	if batch {
		b, err := DecodeBatchEvalRequest(frame)
		if err != nil {
			return nil, err
		}
		reqs = b.Requests
	} else {
		r, err := DecodeEvalRequest(frame)
		if err != nil {
			return nil, err
		}
		reqs = []EvalRequest{*r}
	}
	out := make([]keyOutcome, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		out[i] = keyOutcome{name: r.Interface, method: r.Method}
		opts, err := r.Options()
		_, version, ok := srv.reg.Get(r.Interface)
		switch {
		case r.Samples > srv.cfg.MaxSamples:
			out[i].status, out[i].msg = 400, fmt.Sprintf("samples %d exceeds server cap %d", r.Samples, srv.cfg.MaxSamples)
		case r.EnumLimit > maxEnumLimit:
			out[i].status, out[i].msg = 400, fmt.Sprintf("enum_limit %d exceeds server cap %d", r.EnumLimit, maxEnumLimit)
		case err != nil:
			out[i].status, out[i].msg = 400, err.Error()
		case !ok:
			out[i].status, out[i].msg = 404, fmt.Sprintf("no interface %q", r.Interface)
		default:
			out[i].key = memoKey(r.Interface, version, r.Method, r.Args, opts)
		}
	}
	return out, nil
}

// keyTestServer has testEIL registered (accel_hw version 1, ml_webservice
// version 2), and the stacks the codec tests' requests name.
func keyTestServer(t testing.TB) *Server {
	srv := NewServer(Config{})
	for _, src := range []string{testEIL,
		"interface mlservice { func handle_request(a) { return 1mJ } }",
		"interface storage { func handle_request(a) { return 2mJ } }"} {
		if _, err := srv.Registry().RegisterSource(src); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// sameKeys reports how the key walk and the reference disagree on frame,
// or "" if they agree: both refuse it, or they key every item alike.
func sameKeys(srv *Server, frame []byte, batch bool) string {
	got, walkErr := walkKeys(srv, frame, batch)
	want, decErr := referenceKeys(srv, frame, batch)
	switch {
	case (walkErr == nil) != (decErr == nil):
		return fmt.Sprintf("key walk says %v, decoder says %v", walkErr, decErr)
	case walkErr != nil:
		return ""
	case len(got) != len(want):
		return fmt.Sprintf("%d items keyed, %d decoded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("item %d keys as %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// patched is frame with every old replaced by new, of the same length.
func patched(frame []byte, old, new string) []byte {
	return bytes.ReplaceAll(frame, []byte(old), []byte(new))
}

// FuzzMemoKey holds the key walk to the reference: on any bytes, read as
// an eval request and as a batch (refs and held prefixes included), the
// walk and the decoder both refuse them, or the walk keys every item as
// memoKey keys the decoded one — the same key, or the same refusal. So a
// warm item answered off its bytes is answered exactly as it was when it
// was decoded first, and equal bytes are equal values: a frame whose
// record or pinned-ECV names are not strictly ascending is refused.
func FuzzMemoKey(f *testing.F) {
	srv := keyTestServer(f)
	for _, frame := range memoKeySeeds() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, batch := range []bool{false, true} {
			if diff := sameKeys(srv, data, batch); diff != "" {
				t.Fatalf("batch=%v: %s", batch, diff)
			}
		}
	})
}

// memoKeySeeds are request frames alone and in batches: every key-table
// request, −0 and NaN with two payloads, unsorted and repeated record and
// pin names, values nested to the bound and past it, pins, samples and
// enumeration limits explicit and defaulted in each mode, refs and held
// items.
func memoKeySeeds() [][]byte {
	nest := func(levels int) core.Value {
		v := core.Num(1)
		for range levels {
			v = core.List(v)
		}
		return v
	}
	nan := func(payload uint64) core.Value { return core.Num(math.Float64frombits(0x7ff8000000000000 | payload)) }
	reqs := append(keyTableRequests(), *testEvalRequest())
	for _, args := range []Args{{nan(1)}, {nan(2)}, {nan(1), nan(2)}, {nest(maxValueDepth)}, {nest(maxValueDepth + 1)},
		{core.Record(map[string]core.Value{"zzA": core.Num(1), "zzB": core.Num(2)})}} {
		reqs = append(reqs, EvalRequest{Interface: "ml_webservice", Method: "handle", Mode: "expected", Args: args})
	}
	reqs = append(reqs, EvalRequest{Interface: "ml_webservice", Method: "handle", Mode: "fixed", Args: Args{reqArg()},
		Fixed: Fixed{"zzA": core.Bool(true), "zzB": core.Bool(false)}})
	for _, m := range core.Modes {
		for _, samples := range []int{0, core.DefaultSamples, 512} {
			for _, limit := range []int{0, core.DefaultEnumLimit} {
				reqs = append(reqs, EvalRequest{Interface: "ml_webservice", Method: "handle", Mode: m.String(),
					Args: Args{reqArg()}, Samples: samples, EnumLimit: limit, Seed: 3})
			}
		}
	}
	var seeds [][]byte
	for i := range reqs {
		frame := binaryFrame(&EvalEndpoint.Request, &reqs[i])
		seeds = append(seeds, frame)
		if bytes.Contains(frame, []byte("zzA")) {
			seeds = append(seeds, patched(frame, "zzA", "zzC"), patched(frame, "zzA", "zzB"))
		}
	}
	batch := &BatchEvalRequest{Requests: append(keyTableRequests()[:4], keyTableRequests()[:4]...)}
	seeds = append(seeds, binaryFrame(&EvalBatchEndpoint.Request, batch))
	batch.held = []uint64{3, 0, 0, 5, 0, 0, 0, 0}
	seeds = append(seeds, binaryFrame(&EvalBatchEndpoint.Request, batch))
	held := refBatchRequests()
	held.held = []uint64{3, 0, 5, 0, 0, 0}
	return append(seeds, binaryFrame(&EvalBatchEndpoint.Request, refBatchRequests()), binaryFrame(&EvalBatchEndpoint.Request, held))
}

// TestNamesAscendingOrRefused: a record's field names and the pinned ECVs'
// names must be strictly ascending on the wire. The encoder sorts them; a
// frame with two out of order, or one repeated, is refused by the decoder,
// the walker and the key walk alike.
func TestNamesAscendingOrRefused(t *testing.T) {
	srv := keyTestServer(t)
	for _, r := range []EvalRequest{
		{Interface: "ml_webservice", Method: "handle", Mode: "expected", Args: Args{core.Record(map[string]core.Value{"zzA": core.Num(1), "zzB": core.Num(2)})}},
		{Interface: "ml_webservice", Method: "handle", Mode: "fixed", Fixed: Fixed{"zzA": core.Bool(true), "zzB": core.Bool(false)}},
	} {
		frame := binaryFrame(&EvalEndpoint.Request, &r)
		if diff := sameKeys(srv, frame, false); diff != "" {
			t.Fatal(diff)
		}
		for _, bad := range [][]byte{patched(frame, "zzA", "zzC"), patched(frame, "zzA", "zzB")} {
			_, decErr := DecodeEvalRequest(bad)
			_, walkErr := WalkEvalRequest(bad)
			_, keyErr := walkKeys(srv, bad, false)
			if decErr == nil || walkErr == nil || keyErr == nil {
				t.Errorf("names out of order taken: decoder %v, walker %v, key walk %v", decErr, walkErr, keyErr)
			}
		}
	}
}

// keyTableRequests are the requests of TestMemoKeyTable, each against
// testEIL registered in a fresh server (accel_hw version 1, ml_webservice
// version 2).
func keyTableRequests() []EvalRequest {
	rec := func(kv ...any) core.Value {
		m := map[string]core.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(core.Value)
		}
		return core.Record(m)
	}
	h := func(mode string, args ...core.Value) EvalRequest {
		return EvalRequest{Interface: "ml_webservice", Method: "handle", Mode: mode, Args: args}
	}
	pins := Fixed{"ml_webservice.request_hit": core.Bool(false), "ml_webservice.local_cache_hit": core.Bool(true)}
	reqs := []EvalRequest{
		h("expected", reqArg()),
		{Interface: "ml_webservice", Method: "handle", Mode: "expected", Args: Args{reqArg()}, Samples: core.DefaultSamples, EnumLimit: core.DefaultEnumLimit},
		{Interface: "ml_webservice", Method: "handle", Mode: "expected", Args: Args{reqArg()}, Parallelism: 8, DeadlineMs: 100},
		{Interface: "ml_webservice", Method: "handle", Mode: "expected", Args: Args{reqArg()}, Samples: 33, EnumLimit: 10, Seed: 11},
		{Interface: "ml_webservice", Method: "handle", Mode: "worst-case", Args: Args{reqArg()}, Seed: 5},
		{Interface: "ml_webservice", Method: "handle", Mode: "worst", Args: Args{reqArg()}, Seed: 5},
		{Interface: "ml_webservice", Method: "handle", Mode: "best-case", Args: Args{reqArg()}, Samples: 100},
		{Interface: "ml_webservice", Method: "handle", Mode: "fixed", Args: Args{reqArg()}, Samples: 7, Seed: 9, EnumLimit: 3, Fixed: pins},
		{Interface: "ml_webservice", Method: "handle", Mode: "monte-carlo", Args: Args{reqArg()}, Samples: 512, Seed: 3, EnumLimit: 10},
		{Interface: "ml_webservice", Method: "handle", Mode: "monte-carlo", Args: Args{reqArg()}, Seed: -4},
		{Interface: "ml_webservice", Method: "handle", Mode: "expected", Args: Args{reqArg()}, Fixed: Fixed{"b": core.Num(2), "a": core.Str("x")}},
		h("expected", core.Num(math.Copysign(0, -1))),
		h("expected", core.Num(math.NaN()), core.Num(math.Inf(-1))),
		h("expected", core.Num(1e21), core.Num(0.1), core.Num(-2.5), core.Num(1<<53+1)),
		h("expected", core.Str(""), core.Str("a;b=c}")),
		h("expected", core.Str("ünï"), core.Bool(true), core.Bool(false), core.Nil()),
		h("expected", core.List(core.Num(1), core.List(), rec())),
		h("expected", rec("b", core.Num(1), "a", rec("z", core.Str("x"))), core.List(core.List(core.List(core.Str("deep"))))),
		h("expected"),
		{Interface: "accel_hw", Method: "conv2d", Mode: "best-case", Args: Args{core.Num(5)}},
		{Interface: "ml_webservice", Method: "nope", Mode: "expected", Args: Args{core.Num(1)}},
	}
	return reqs
}

// TestMemoKeyTable: the key walk spells each key-table request's memo key
// exactly as memoKey did when keys were made from decoded requests. The
// keys are literals from that code: peers exchange memo keys, summaries
// fingerprint them and snapshots persist them, so a key that moved would
// miss everywhere the old one is held.
func TestMemoKeyTable(t *testing.T) {
	want := []string{
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m0|s33|l10|r11|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m1|s2048|l4096|r5|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m1|s2048|l4096|r5|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m2|s100|l4096|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m3|s0|l0|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{ml_webservice.local_cache_hit=T;ml_webservice.request_hit=F;}",
		"ml_webservice@2|handle|m4|s512|l0|r3|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m4|s2048|l0|r-4|A[R{pixels=N1e+06;zeros=N200000;};]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{a=S1:x;b=N2;}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[N-0;]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[NNaN;N-Inf;]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[N1e+21;N0.1;N-2.5;N9.007199254740992e+15;]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[S0:;S6:a;b=c};]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[S5:ünï;T;F;_;]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[L[N1;L[];R{};];]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[R{a=R{z=S1:x;};b=N1;};L[L[L[S4:deep;];];];]|F{}",
		"ml_webservice@2|handle|m0|s2048|l4096|r0|A[]|F{}",
		"accel_hw@1|conv2d|m2|s2048|l4096|r0|A[N5;]|F{}",
		"ml_webservice@2|nope|m0|s2048|l4096|r0|A[N1;]|F{}",
	}
	srv := keyTestServer(t)
	reqs := keyTableRequests()
	if len(reqs) != len(want) {
		t.Fatalf("%d requests, %d keys", len(reqs), len(want))
	}
	for i := range reqs {
		got, err := walkKeys(srv, binaryFrame(&EvalEndpoint.Request, &reqs[i]), false)
		if err != nil || got[0].key != want[i] {
			t.Errorf("request %d keys as %q (err %v), want %q", i, got[0].key, err, want[i])
		}
	}
}
