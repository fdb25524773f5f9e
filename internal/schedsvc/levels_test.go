package schedsvc

import (
	"testing"

	"energyclarity/internal/sched"
)

// TestLevelEnumerationAgreesWithSched pins satellite contract between the
// chip-local placer and the fleet scheduler: both sides enumerate DVFS
// candidates through sched.LevelIndices, so for every node class the
// cost-pricing batch and the candidate ranking cover exactly that list —
// no level skipped, none invented, none duplicated.
func TestLevelEnumerationAgreesWithSched(t *testing.T) {
	s, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// CostRequests: one "cost" request per shared level index per class.
	costLevels := map[string]map[int]int{}
	for _, r := range s.CostRequests() {
		if r.Method != "cost" {
			continue
		}
		if costLevels[r.Interface] == nil {
			costLevels[r.Interface] = map[int]int{}
		}
		costLevels[r.Interface][int(argNum(&r, 1))]++
	}
	// rankCandidates (interface policy): one candidate per shared index.
	uc := unitCosts{perCycle: map[string][]float64{}, idle: map[string]float64{}}
	for _, nc := range s.cfg.Nodes {
		uc.perCycle[nc.Name] = make([]float64, len(nc.Levels))
	}
	cands, err := s.rankCandidates(PolicyInterface, uc, 0)
	if err != nil {
		t.Fatal(err)
	}
	candLevels := map[string]map[int]int{}
	for _, c := range cands {
		if candLevels[c.class] == nil {
			candLevels[c.class] = map[int]int{}
		}
		candLevels[c.class][c.level]++
	}

	for _, nc := range s.cfg.Nodes {
		want := sched.LevelIndices(len(nc.Levels))
		byCost := costLevels[NodeInterfaceName(nc.Name)]
		byCand := candLevels[nc.Name]
		if len(byCost) != len(want) || len(byCand) != len(want) {
			t.Fatalf("class %s: cost batch covers %d levels, ranking %d, shared helper lists %d",
				nc.Name, len(byCost), len(byCand), len(want))
		}
		for _, l := range want {
			if byCost[l] != 1 {
				t.Errorf("class %s level %d priced %d times in CostRequests, want once", nc.Name, l, byCost[l])
			}
			if byCand[l] != 1 {
				t.Errorf("class %s level %d ranked %d times in rankCandidates, want once", nc.Name, l, byCand[l])
			}
		}
	}
}
