package eisvc

// Fixtures and internals the external tests (package eisvc_test, which
// may import internal/fleet where this package's own tests cannot) share
// with the in-package ones.
const TestEIL = testEIL

type (
	NodeCounters      = nodeCounters
	DriftCounters     = driftCounters
	AdmissionCounters = admissionCounters
)

var (
	MemoKey = memoKey
	ReqArg  = reqArg
)
