package eisvc_test

import (
	"reflect"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/counters"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/faultsim"
	"energyclarity/internal/fleet"
)

// TestCounterSetsAreWords holds every counter set of the tree to the
// layout counters.Add reads it as: uint64 fields and nothing else. It is
// an external test so that it can name the router's set.
func TestCounterSetsAreWords(t *testing.T) {
	for _, v := range []any{eisvc.NodeCounters{}, eisvc.DriftCounters{}, eisvc.AdmissionCounters{}, eisvc.Counters{},
		fleet.RouterCounters{}, faultsim.Counters{}, core.ProgramStats{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() != reflect.Uint64 {
				t.Errorf("%s.%s is a %s; a counter set holds uint64 counters only", typ, f.Name, f.Type)
			}
		}
		if typ.Size() != uintptr(8*typ.NumField()) {
			t.Errorf("%s: %d bytes for %d counters", typ, typ.Size(), typ.NumField())
		}
	}
	live := eisvc.NodeCounters{Evaluations: 3, HedgedRequests: 5}
	var sum eisvc.NodeCounters
	counters.Add(&sum, &live)
	counters.Add(&sum, &live)
	if got := sum; got != (eisvc.NodeCounters{Evaluations: 6, HedgedRequests: 10}) {
		t.Errorf("two folds of %+v = %+v", live, got)
	}
}
