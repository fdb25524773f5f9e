package schedsvc

import (
	"context"
	"math"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
)

// testConfig builds a small two-region cluster where the energy-optimal
// and carbon-optimal placements disagree: eff (north) has the cheapest
// joules per cycle, but north's grid is dirtier than south's, so a
// carbon-aware scheduler prefers big (south) even though it burns more
// joules.
func testConfig() Config {
	return Config{
		Nodes: []NodeClass{
			{
				Name: "eff", Region: "north", Count: 4, IdleW: 10,
				Levels: []OperatingPoint{
					{CyclesPerSec: 1e9, ActiveW: 18}, // 8e-9 J/cycle marginal
					{CyclesPerSec: 2e9, ActiveW: 30}, // 10e-9
				},
			},
			{
				Name: "big", Region: "south", Count: 2, IdleW: 50,
				Levels: []OperatingPoint{
					{CyclesPerSec: 8e9, ActiveW: 170},  // 15e-9
					{CyclesPerSec: 16e9, ActiveW: 420}, // ~23.1e-9
				},
			},
		},
		Tasks: []TaskClass{
			{Name: "web", PeakCycles: 2e8, TroughCycles: 2e7,
				PeakLen: 2, TroughLen: 2, RequestCycles: 1e8},
			{Name: "batch", PeakCycles: 1e9, TroughCycles: 1e8,
				PeakLen: 3, TroughLen: 3, RequestCycles: 3e8},
		},
		Groups: []TaskGroup{
			{Class: "web", Phase: 0, N: 40},
			{Class: "web", Phase: 2, N: 40},
			{Class: "batch", Phase: 0, N: 10},
		},
		Margin: 0.05,
		Carbon: CarbonTrace{
			"north": {Base: 300},
			"south": {Base: 150},
		},
	}
}

// TestSourceEILCompilesAndEvaluates pins the generated interfaces'
// semantics by compiling the EIL in-process and checking cost, capacity,
// idle, and demand against hand arithmetic.
func TestSourceEILCompilesAndEvaluates(t *testing.T) {
	cfg := testConfig()
	src := SourceEIL(cfg)
	m, err := eil.Compile(src, nil)
	if err != nil {
		t.Fatalf("generated EIL does not compile: %v\nsource:\n%s", err, src)
	}
	eval := func(iface, method string, args ...float64) float64 {
		t.Helper()
		in := m[iface]
		if in == nil {
			t.Fatalf("interface %s not compiled", iface)
		}
		vals := make([]core.Value, len(args))
		for i, a := range args {
			vals[i] = core.Num(a)
		}
		j, err := in.ExpectedJoules(method, vals...)
		if err != nil {
			t.Fatalf("%s.%s%v: %v", iface, method, args, err)
		}
		return float64(j)
	}

	// node_eff level 0: half-busy round = 18*0.5 + 10*0.5 = 14 J.
	if got := eval("node_eff", "cost", 5e8, 0); math.Abs(got-14) > 1e-9 {
		t.Errorf("node_eff.cost(5e8, 0) = %v, want 14", got)
	}
	// Overload clamps at fully busy.
	if got := eval("node_eff", "cost", 5e9, 0); math.Abs(got-18) > 1e-9 {
		t.Errorf("node_eff.cost(5e9, 0) = %v, want 18", got)
	}
	// Level dispatch picks the last arm for the top level.
	if got := eval("node_big", "cost", 16e9, 1); math.Abs(got-420) > 1e-9 {
		t.Errorf("node_big.cost(16e9, 1) = %v, want 420", got)
	}
	if got := eval("node_big", "capacity", 0); got != 8e9 {
		t.Errorf("node_big.capacity(0) = %v, want 8e9", got)
	}
	if got := eval("node_eff", "idle"); got != 10 {
		t.Errorf("node_eff.idle() = %v, want 10", got)
	}
	// web: phases 0,1 peak; 2,3 trough; argument reduced mod period.
	for p, want := range map[float64]float64{0: 2e8, 1: 2e8, 2: 2e7, 3: 2e7, 5: 2e8} {
		if got := eval("task_web", "demand_cycles", p); got != want {
			t.Errorf("task_web.demand_cycles(%v) = %v, want %v", p, got, want)
		}
	}
}

// startTestFleet boots a small fleet behind a router, registers the
// config's interfaces through the wire, and returns a ready scheduler.
func startTestFleet(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	fl, err := fleet.New(fleet.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	_, base, stop, err := fl.StartRouter("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	c := eisvc.NewClient(base)
	s, err := New(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunPoliciesAgainstFleet is the package's end-to-end story: the
// interface-driven policy beats the utilization baseline on energy at
// strictly better QoS, and the carbon-aware variant trades joules for
// grams under the region-crossed intensity trace.
func TestRunPoliciesAgainstFleet(t *testing.T) {
	s := startTestFleet(t, testConfig())
	ctx := context.Background()
	const rounds = 8

	base, err := s.Run(ctx, PolicyUtilization, rounds)
	if err != nil {
		t.Fatal(err)
	}
	iface, err := s.Run(ctx, PolicyInterface, rounds)
	if err != nil {
		t.Fatal(err)
	}
	carbon, err := s.Run(ctx, PolicyCarbon, rounds)
	if err != nil {
		t.Fatal(err)
	}

	if base.Fleet.Items != 0 {
		t.Errorf("baseline issued %d fleet items, want 0", base.Fleet.Items)
	}
	if iface.Fleet.Items == 0 || iface.Fleet.Batches == 0 {
		t.Fatalf("interface policy did not query the fleet: %+v", iface.Fleet)
	}
	if iface.Fleet.CacheServed == 0 {
		t.Errorf("canonical queries never hit the fleet cache: %+v", iface.Fleet)
	}

	if iface.Energy >= base.Energy {
		t.Errorf("interface energy %v !< baseline %v", iface.Energy, base.Energy)
	}
	if iface.UnmetCycles != 0 {
		t.Errorf("interface policy has backlog: %v cycles", iface.UnmetCycles)
	}
	if base.UnmetCycles <= 0 {
		t.Errorf("baseline shows no QoS backlog; escalation lag not modeled")
	}
	if base.DemandCycles != iface.DemandCycles {
		t.Errorf("policies disagree on ground-truth demand: %v vs %v",
			base.DemandCycles, iface.DemandCycles)
	}

	// north is dirtier than south, so carbon-aware placement must emit
	// less than joule-minimizing placement, paying some joules for it.
	if carbon.CarbonGrams >= iface.CarbonGrams {
		t.Errorf("carbon policy grams %v !< interface grams %v",
			carbon.CarbonGrams, iface.CarbonGrams)
	}
	if carbon.Energy <= iface.Energy {
		t.Errorf("carbon policy should trade joules for grams here: %v <= %v",
			carbon.Energy, iface.Energy)
	}
	if carbon.UnmetCycles != 0 {
		t.Errorf("carbon policy has backlog: %v cycles", carbon.UnmetCycles)
	}
	if carbon.PlacementHash == iface.PlacementHash {
		t.Errorf("carbon and interface policies placed identically; trace had no effect")
	}
}

// TestRunDeterministic runs the same policy repeatedly against the same
// fleet and demands bit-identical results — placement hash, energy bits,
// backlog — across all repetitions.
func TestRunDeterministic(t *testing.T) {
	s := startTestFleet(t, testConfig())
	ctx := context.Background()
	var first Result
	for rep := 0; rep < 50; rep++ {
		got, err := s.Run(ctx, PolicyCarbon, 6)
		if err != nil {
			t.Fatal(err)
		}
		got.Fleet = FleetStats{} // cache hit-rates legitimately vary with warmth
		if rep == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("rep %d diverged:\n got %+v\nwant %+v", rep, got, first)
		}
	}
	if first.PlacementHash == 0 {
		t.Error("placement hash is zero; decisions are not being digested")
	}
}

// TestRunSurfacesFleetErrors: a scheduler whose interfaces are missing
// from the fleet must fail the round loudly, not place with zero demand.
func TestRunSurfacesFleetErrors(t *testing.T) {
	fl, err := fleet.New(fleet.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	_, base, stop, err := fl.StartRouter("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	c := eisvc.NewClient(base)
	s, err := New(testConfig(), c)
	if err != nil {
		t.Fatal(err)
	}
	// No Register: every demand query must fail.
	if _, err := s.Run(context.Background(), PolicyInterface, 2); err == nil {
		t.Fatal("Run succeeded against a fleet with no registered interfaces")
	} else if !strings.Contains(err.Error(), "task_") {
		t.Fatalf("error does not identify the failing interface: %v", err)
	}
}

// TestConfigValidate covers the rejection paths.
func TestConfigValidate(t *testing.T) {
	ok := testConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = nil }},
		{"dup node class", func(c *Config) { c.Nodes = append(c.Nodes, c.Nodes[0]) }},
		{"active below idle", func(c *Config) { c.Nodes[0].Levels[0].ActiveW = 5 }},
		{"levels not ascending", func(c *Config) { c.Nodes[0].Levels[1].CyclesPerSec = 1e8 }},
		{"dup task class", func(c *Config) { c.Tasks = append(c.Tasks, c.Tasks[0]) }},
		{"unknown group class", func(c *Config) { c.Groups[0].Class = "nope" }},
		{"phase out of range", func(c *Config) { c.Groups[0].Phase = 99 }},
	}
	for _, tc := range cases {
		c := testConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}

// TestCarbonTrace pins the intensity signal's shape.
func TestCarbonTrace(t *testing.T) {
	rc := RegionCarbon{Base: 100, Amp: 50, Period: 4, Phase: 1}
	// q+Phase = 1,2,3,4 → sin(π/2), sin(π), sin(3π/2), sin(2π).
	for q, want := range []float64{150, 100, 50, 100} {
		if got := rc.At(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("At(%d) = %v, want %v", q, got, want)
		}
	}
	if got := (RegionCarbon{Base: 10, Amp: 100, Period: 4}).At(3); got != 0 {
		t.Errorf("negative intensity not floored: %v", got)
	}
	ct := CarbonTrace{"b": {}, "a": {}}
	if r := ct.Regions(); len(r) != 2 || r[0] != "a" || r[1] != "b" {
		t.Errorf("Regions() = %v", r)
	}
	if _, err := ct.Intensity("missing", 0); err == nil {
		t.Error("unknown region did not error")
	}
	// 3.6e6 J at 1000 g/kWh is exactly 1 kWh → 1000 g.
	if g := CarbonGrams(3.6e6, 1000); g != 1000 {
		t.Errorf("CarbonGrams = %v", g)
	}
}
