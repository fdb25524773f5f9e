package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"energyclarity/internal/energy"
)

// TestTable1ReproducesPaperShape is the headline reproduction check: the
// 4090 predicts within ~1%, the 3070 several times worse (paper: 0.70%/
// 0.93% vs 6.06%/8.11%). Absolute values are simulator-dependent; the
// asserted bands capture the paper's shape.
func TestTable1ReproducesPaperShape(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r4090, r3070 := res.Rows[0], res.Rows[1]
	if r4090.Device != "RTX4090" || r3070.Device != "RTX3070" {
		t.Fatalf("device order: %s, %s", r4090.Device, r3070.Device)
	}
	if r4090.AvgErr > 0.02 {
		t.Errorf("RTX4090 avg error %.4f, want < 2%%", r4090.AvgErr)
	}
	if r4090.MaxErr > 0.03 {
		t.Errorf("RTX4090 max error %.4f, want < 3%%", r4090.MaxErr)
	}
	if r3070.AvgErr < 0.02 || r3070.AvgErr > 0.12 {
		t.Errorf("RTX3070 avg error %.4f, want 2-12%%", r3070.AvgErr)
	}
	if r3070.MaxErr > 0.15 {
		t.Errorf("RTX3070 max error %.4f, want < 15%%", r3070.MaxErr)
	}
	if ratio := r3070.AvgErr / r4090.AvgErr; ratio < 3 {
		t.Errorf("3070/4090 error ratio %.2f, want > 3 (paper: ~8.7)", ratio)
	}
	if len(r4090.PerRun) != len(Table1TokenCounts) {
		t.Errorf("per-run data missing: %d", len(r4090.PerRun))
	}
	for _, run := range r3070.PerRun {
		if run.Measured <= 0 || run.Predicted <= 0 {
			t.Errorf("degenerate run %+v", run)
		}
	}
}

func TestTable1TableRenders(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T1", "RTX4090", "RTX3070", "Average error"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := res.Table().CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 3 {
		t.Errorf("CSV lines = %d, want 3", lines)
	}
}

func TestFig1AccuracyAcrossCapacities(t *testing.T) {
	res, err := Fig1WebService()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig1Capacities) {
		t.Fatalf("points = %d", len(res.Points))
	}
	prevHit := -1.0
	for _, p := range res.Points {
		if p.RelErr > 0.10 {
			t.Errorf("capacity %d: interface error %.4f > 10%%", p.LocalCapacity, p.RelErr)
		}
		if p.PRequestHit <= prevHit-0.05 {
			t.Errorf("hit rate should grow (roughly) with capacity: %v after %v",
				p.PRequestHit, prevHit)
		}
		prevHit = p.PRequestHit
		if p.Predicted <= 0 || p.Measured <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	// Bigger caches must make requests cheaper on average (more hits).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Measured >= first.Measured {
		t.Errorf("per-request energy should drop with capacity: %v -> %v",
			first.Measured, last.Measured)
	}
}

func TestFig2RebindingPreservesAccuracy(t *testing.T) {
	res, err := Fig2Rebinding()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].RelErr > 0.02 {
		t.Errorf("4090 stack error %.4f", res.Rows[0].RelErr)
	}
	// The rebound stack must predict the 3070 at 3070-grade accuracy
	// (bounded by the device's own Table 1 band).
	if res.Rows[1].RelErr > 0.15 {
		t.Errorf("rebound 3070 stack error %.4f", res.Rows[1].RelErr)
	}
}

func TestE1InterfaceAnswersMatchDeployment(t *testing.T) {
	res, err := E1ClusterFuzz()
	if err != nil {
		t.Fatal(err)
	}
	if d := res.InterfaceOptimalN - res.MeasuredOptimalN; d < -3 || d > 3 {
		t.Errorf("interface optimum %d vs measured %d", res.InterfaceOptimalN, res.MeasuredOptimalN)
	}
	if res.InterfaceOptimalN <= 1 || res.InterfaceOptimalN >= e1MaxFleet {
		t.Errorf("optimum %d at boundary", res.InterfaceOptimalN)
	}
	if res.TrialSearchEnergy < 10*res.InterfaceOptimalE {
		t.Errorf("trial-and-error spent %v, want ≫ campaign energy %v",
			res.TrialSearchEnergy, res.InterfaceOptimalE)
	}
	if res.InterfaceSearchEnergy != 0 {
		t.Errorf("interface search energy %v, want 0", res.InterfaceSearchEnergy)
	}
	if res.Marginal90to95 <= 0 {
		t.Errorf("marginal 90→95 energy %v", res.Marginal90to95)
	}
}

func TestE2InterfaceAwareWins(t *testing.T) {
	res, err := E2EASBimodal()
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.UnmetFraction() <= res.Aware.UnmetFraction() {
		t.Errorf("baseline QoS %.4f should be worse than aware %.4f",
			res.Baseline.UnmetFraction(), res.Aware.UnmetFraction())
	}
	if res.Aware.UnmetFraction() > 0.01 {
		t.Errorf("interface-aware backlog %.4f, want ~0", res.Aware.UnmetFraction())
	}
	if res.Baseline.TotalEnergy <= 0 || res.Aware.TotalEnergy <= 0 {
		t.Error("degenerate energies")
	}
}

func TestE3InterfacePlacementWins(t *testing.T) {
	res, err := E3KubePlacement()
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergySavings() <= 0 {
		t.Errorf("interface placement saves %.4f, want > 0", res.EnergySavings())
	}
	// The kvstore app must land on the big-memory node only under the
	// interface placer.
	if res.ByInterface.Nodes[1] != "bigmem" || res.ByRequest.Nodes[1] != "compute" {
		t.Errorf("placements: interface %v, request %v", res.ByInterface.Nodes, res.ByRequest.Nodes)
	}
}

func TestE4ChecksBehave(t *testing.T) {
	res, err := E4Contracts()
	if err != nil {
		t.Fatal(err)
	}
	if !res.RefinementOK {
		t.Error("1.3x envelope rejected")
	}
	if res.TightSpecViolations == 0 {
		t.Error("0.8x envelope accepted")
	}
	if res.HealthyFlagged {
		t.Error("healthy system flagged as buggy")
	}
	if !res.BugFlagged || res.BugRelErr < 0.4 {
		t.Errorf("retry bug not flagged properly (rel %v)", res.BugRelErr)
	}
	if res.ConstTimeSpread != 0 {
		t.Errorf("const-time spread %v", res.ConstTimeSpread)
	}
	if res.LeakySpread <= 0.5 {
		t.Errorf("leaky spread %v, want large", res.LeakySpread)
	}
}

func TestE5ExtractionExact(t *testing.T) {
	res, err := E5Extraction()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDeviation > 1e-9 {
		t.Errorf("extraction deviation %v, want ~0", res.MaxDeviation)
	}
	if !strings.Contains(res.ExtractedEIL, "ecv pool_warm: bernoulli(0.6)") {
		t.Errorf("extracted EIL missing ECV:\n%s", res.ExtractedEIL)
	}
}

func TestE6ErrorPropagationShape(t *testing.T) {
	res, err := E6ErrorPropagation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(E6Epsilons) {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, p := range res.Points {
		// Correlated leaf errors must propagate near 1:1 (within 30%).
		ratio := p.TopErrCorrelated / p.Epsilon
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("ε=%v: correlated amplification %v, want ≈1", p.Epsilon, ratio)
		}
		// Alternating signs must cancel at least partially.
		if p.TopErrAlternating >= p.TopErrCorrelated {
			t.Errorf("ε=%v: no cancellation (%v >= %v)", p.Epsilon,
				p.TopErrAlternating, p.TopErrCorrelated)
		}
		// Monotone growth.
		if i > 0 && p.TopErrCorrelated <= res.Points[i-1].TopErrCorrelated {
			t.Errorf("correlated error not monotone at ε=%v", p.Epsilon)
		}
	}
}

func TestE7RegressionDegradesOutOfDistribution(t *testing.T) {
	res, err := E7Profiling()
	if err != nil {
		t.Fatal(err)
	}
	var inRegression, outRegression, outInterface float64
	var nIn, nOut int
	for _, p := range res.Points {
		if p.OutOfDist {
			outRegression += p.RegressionErr
			outInterface += p.InterfaceErr
			nOut++
		} else {
			inRegression += p.RegressionErr
			nIn++
		}
	}
	inRegression /= float64(nIn)
	outRegression /= float64(nOut)
	outInterface /= float64(nOut)
	if inRegression > 0.05 {
		t.Errorf("regression in-distribution error %.4f, want small", inRegression)
	}
	if outRegression < 2*inRegression {
		t.Errorf("regression should degrade OOD: in %.4f out %.4f", inRegression, outRegression)
	}
	if outInterface > 0.02 {
		t.Errorf("interface OOD error %.4f, want < 2%%", outInterface)
	}
	if outRegression < 3*outInterface {
		t.Errorf("regression OOD (%.4f) should be ≫ interface OOD (%.4f)",
			outRegression, outInterface)
	}
}

func TestE8ProvisioningShape(t *testing.T) {
	res, err := E8PowerProvisioning()
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedPeak >= res.Nameplate {
		t.Errorf("predicted peak %v should be far below nameplate %v",
			res.PredictedPeak, res.Nameplate)
	}
	// The prediction must be safe: measured peak within a few percent of
	// (and not far above) the predicted peak.
	if float64(res.MeasuredPeak) > float64(res.PredictedPeak)*1.05 {
		t.Errorf("measured peak %v exceeds predicted %v by >5%%",
			res.MeasuredPeak, res.PredictedPeak)
	}
	if res.AveragePower >= res.MeasuredPeak {
		t.Errorf("average %v not below peak %v", res.AveragePower, res.MeasuredPeak)
	}
	if res.ServersByInterface <= res.ServersByNameplate {
		t.Errorf("no provisioning gain: %d vs %d",
			res.ServersByInterface, res.ServersByNameplate)
	}
	if res.UtilizationGain < 1 {
		t.Errorf("utilization gain %.2f, want at least 2x", res.UtilizationGain)
	}
}

func TestE9DVFSShape(t *testing.T) {
	res, err := E9DVFS()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 || len(res.Decisions) != 2 {
		t.Fatalf("points %d decisions %d", len(res.Points), len(res.Decisions))
	}
	for _, p := range res.Points {
		if p.RelErr > 0.02 {
			t.Errorf("%s@%.2f: interface error %.4f", p.Workload, p.Scale, p.RelErr)
		}
	}
	var prefill, decode E9Decision
	for _, d := range res.Decisions {
		switch d.Workload {
		case "prefill-512":
			prefill = d
		case "decode-200":
			decode = d
		}
	}
	// Memory-bound decode: a lower clock saves energy essentially for free.
	if decode.Savings < 0.05 {
		t.Errorf("decode savings %.4f, want > 5%%", decode.Savings)
	}
	if decode.SlowdownRatio > 1.05 {
		t.Errorf("decode slowdown %.3f, want ~1 (VRAM-paced)", decode.SlowdownRatio)
	}
	// Compute-bound prefill: savings cost real time.
	if prefill.SlowdownRatio < 1.15 {
		t.Errorf("prefill slowdown %.3f, want a real time trade", prefill.SlowdownRatio)
	}
	// Decode predicted energy must be monotone in clock (dynamic v² effect
	// with fixed duration).
	var prev float64
	for _, p := range res.Points {
		if p.Workload != "decode-200" {
			continue
		}
		if float64(p.Predicted) <= prev {
			t.Errorf("decode energy not increasing with clock at %.2f", p.Scale)
		}
		prev = float64(p.Predicted)
	}
}

func TestE10BatchServingShape(t *testing.T) {
	res, err := E10BatchServing()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(E10Batches) {
		t.Fatalf("points = %d", len(res.Points))
	}
	prev := energy.Joules(0)
	prevRatio := 0.0
	for i, p := range res.Points {
		if p.RelErr > 0.02 {
			t.Errorf("batch %d: prediction error %.4f", p.Batch, p.RelErr)
		}
		if i > 0 {
			if p.MeasuredPerTk >= prev {
				t.Errorf("J/token not decreasing at batch %d", p.Batch)
			}
			ratio := float64(prev) / float64(p.MeasuredPerTk)
			if i > 1 && ratio > prevRatio+0.05 {
				t.Errorf("no diminishing returns at batch %d: %.2fx after %.2fx",
					p.Batch, ratio, prevRatio)
			}
			prevRatio = ratio
		}
		prev = p.MeasuredPerTk
	}
	if res.ChosenBatch < 8 {
		t.Errorf("chosen batch %d implausibly small", res.ChosenBatch)
	}
	if res.SavingsVsB1 < 0.7 {
		t.Errorf("savings vs batch 1 = %.3f, want > 70%%", res.SavingsVsB1)
	}
}

func TestE11DaemonServingShape(t *testing.T) {
	res, err := E11DaemonServing()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(e11Clients * e11PerClient)
	if res.Requests != want {
		t.Errorf("requests = %d, want %d", res.Requests, want)
	}
	// The Zipf head repeats constantly, so well over half the trace must be
	// memo hits; misses are bounded by concurrent duplicates of the first
	// ask per class, not by the trace length.
	if res.HitRate < 0.5 {
		t.Errorf("memo hit rate %.4f, want > 0.5", res.HitRate)
	}
	if res.Evaluations < e11Distinct/2 || res.Evaluations >= res.Requests {
		t.Errorf("evaluations = %d (requests %d)", res.Evaluations, res.Requests)
	}
	if res.ClientsSeen != e11Clients {
		t.Errorf("ledger saw %d clients, want %d", res.ClientsSeen, e11Clients)
	}
	if res.AttribJ <= 0 {
		t.Errorf("attributed joules %v, want > 0", res.AttribJ)
	}
	// Overload burst: a one-worker daemon must serve some and shed the rest
	// rather than queue without bound.
	if res.Served == 0 {
		t.Error("overload burst: nothing served")
	}
	if res.Shed() == 0 {
		t.Error("overload burst: nothing shed")
	}
	if got := res.Served + int(res.Shed()); got != res.Offered {
		t.Errorf("served %d + shed %d != offered %d", res.Served, res.Shed(), res.Offered)
	}
}

func TestE12LayerCacheShape(t *testing.T) {
	res, err := E12LayerCache()
	if err != nil {
		t.Fatal(err)
	}
	// E12LayerCache itself errors on any cached-vs-cold divergence; assert
	// the flag anyway so the invariant is visible here.
	if !res.BitIdentical {
		t.Error("cached trace answers diverged from uncached")
	}
	if res.Classes != e12Classes || res.Requests != e12Requests {
		t.Errorf("shape %d classes / %d requests", res.Classes, res.Requests)
	}
	// Same deterministic trace both ways: the same classes go cold.
	if res.ColdOff != res.ColdOn {
		t.Errorf("cold counts differ: %d off vs %d on", res.ColdOff, res.ColdOn)
	}
	if res.ColdOff == 0 || res.ColdOff > res.Classes {
		t.Errorf("cold requests = %d, want 1..%d", res.ColdOff, res.Classes)
	}
	// The acceptance bar, in counts (the table prints the wall times): of
	// the sub-interface evaluations the warm trace asks for, the layer
	// cache answers at least half, so at most half run their bodies.
	if res.LayerHits < res.LayerMisses {
		t.Errorf("layer cache gained too little: %d hits against %d misses (body runs)",
			res.LayerHits, res.LayerMisses)
	}
	// Batch phase: duplicates must dedup server-side.
	wantItems := e12Classes * (1 + e12BatchDups)
	if res.BatchItems != wantItems {
		t.Errorf("batch items = %d, want %d", res.BatchItems, wantItems)
	}
	if res.BatchDeduped != e12Classes*e12BatchDups {
		t.Errorf("batch deduped = %d, want %d", res.BatchDeduped, e12Classes*e12BatchDups)
	}
}

func TestE13ResilienceShape(t *testing.T) {
	short := testing.Short()
	res, err := E13Resilience(short)
	if err != nil {
		t.Fatal(err)
	}
	wantOffered := e13Clients * e13PerClient
	if short {
		wantOffered = 3 * 10
	}
	if res.Offered != wantOffered {
		t.Errorf("offered = %d, want %d", res.Offered, wantOffered)
	}
	// The acceptance bar: ≥ 99% of the trace eventually succeeds despite
	// the injected faults...
	if res.SuccessRate < 0.99 {
		t.Errorf("success rate %.4f, want >= 0.99 (%d/%d)", res.SuccessRate, res.Succeeded, res.Offered)
	}
	// ...and every answer that arrives is bit-identical to the fault-free
	// reference — resilience changes delivery, never the numbers.
	if res.Mismatches != 0 {
		t.Errorf("%d answers diverged from the fault-free reference", res.Mismatches)
	}
	// The plan really injected faults and the clients really retried.
	if injected := res.InjResetsPre + res.InjResetsPost + res.Inj5xx + res.InjHangs; injected == 0 {
		t.Error("no faults injected — the trace proved nothing")
	}
	if res.Retries == 0 {
		t.Error("clients never retried under fault injection")
	}
	if !short && res.SrvRetried == 0 {
		t.Error("server saw no retried requests (X-Eisvc-Attempt aggregation)")
	}
	// Cancellation probe: the follow-up got the single worker far sooner
	// than the heavy evaluation would have held it.
	if !res.ProbeOK {
		t.Error("cancellation probe did not complete")
	}
	// In method bodies (the table prints the milliseconds): uncancelled, the
	// evaluation runs one body per sample; cancelled during its first body
	// at parallelism 1, it runs that one and starts no other.
	if res.HeavyBodies != e13Samples || res.CancelledBodies != 1 {
		t.Errorf("cancelled evaluation ran %d bodies (want 1) of the %d it runs uncancelled (want %d)",
			res.CancelledBodies, res.HeavyBodies, e13Samples)
	}
	// Drain probe.
	if !res.DrainOK || !res.InFlightCompleted {
		t.Errorf("drain probe: ok=%v inFlightCompleted=%v", res.DrainOK, res.InFlightCompleted)
	}
	if res.DrainShed == 0 {
		t.Error("drain probe shed nothing")
	}
}

func TestE14DriftShape(t *testing.T) {
	res, err := E14Drift(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	// Detection: within the configured bound, as device drift (not an
	// input-dependent energy bug — the aging is uniform across inputs).
	if res.DetectDelay < 1 || res.DetectDelay > res.DetectBound {
		t.Errorf("detection delay = %d samples, want 1..%d", res.DetectDelay, res.DetectBound)
	}
	if res.Verdict != "drifting" {
		t.Errorf("verdict = %q, want drifting", res.Verdict)
	}
	// Zero false positives on the identical-but-stable control device.
	if res.ControlSamples == 0 || res.FalsePositives != 0 {
		t.Errorf("control: %d false positives over %d samples, want 0 over >0",
			res.FalsePositives, res.ControlSamples)
	}
	// The seed calibration was healthy before aging, degrades to roughly
	// the aging factor when frozen, and recalibration restores sub-percent
	// error on the very same aged device.
	if res.PreErr > 0.01 {
		t.Errorf("pre-aging error %.4f, want < 1%%", res.PreErr)
	}
	if res.FrozenErr < 0.03 {
		t.Errorf("frozen calibration error %.4f on the aged device, want >= 3%%", res.FrozenErr)
	}
	if res.RecalErr > 0.01 {
		t.Errorf("recalibrated error %.4f, want < 1%%", res.RecalErr)
	}
	// The registry gained a generation through a strict version bump, and
	// the layer cache stayed bit-exact across the install.
	if res.Generations != 2 {
		t.Errorf("generations = %d, want 2 (seed + drift)", res.Generations)
	}
	if res.VersionAfter <= res.VersionBefore {
		t.Errorf("version did not bump: %d -> %d", res.VersionBefore, res.VersionAfter)
	}
	if !res.CacheBitExact {
		t.Error("layer cache not bit-exact across the recalibration install")
	}
	if math.Abs(res.RecalResidual) > 0.02 {
		t.Errorf("post-install verification residual %.4f, want |r| <= 2%%", res.RecalResidual)
	}
}

func TestAblations(t *testing.T) {
	a1, err := A1ExactVsMonteCarlo()
	if err != nil {
		t.Fatal(err)
	}
	if a1.RelDiff > 0.03 {
		t.Errorf("A1: MC differs from exact by %.4f", a1.RelDiff)
	}
	if a1.ExactPoints < 2 {
		t.Errorf("A1: exact support %d", a1.ExactPoints)
	}
	a2, err := A2EILVsNative()
	if err != nil {
		t.Fatal(err)
	}
	if a2.RelDiff > 1e-9 {
		t.Errorf("A2: EIL and native disagree by %v", a2.RelDiff)
	}
	a3, err := A3LayeredVsMonolithic()
	if err != nil {
		t.Fatal(err)
	}
	if a3.RelDiff > 1e-9 {
		t.Errorf("A3: layered and monolithic disagree by %v", a3.RelDiff)
	}
}

func TestAllTablesRender(t *testing.T) {
	tables, err := AllTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 10 {
		t.Fatalf("tables = %d, want all experiments", len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if seen[tab.ID] {
			t.Errorf("duplicate table %s", tab.ID)
		}
		seen[tab.ID] = true
		var buf bytes.Buffer
		if err := tab.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Errorf("table %s rendered empty", tab.ID)
		}
	}
	for _, id := range []string{"T1", "F1", "F2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E16", "E17", "E18", "E19", "A1", "A2", "A3"} {
		if !seen[id] {
			t.Errorf("missing table %s", id)
		}
	}
}

// TestE16FleetShape always runs the short trace (the full-size fleet run
// renders through TestAllTablesRender); it asserts the fleet contract:
// scale-out beats the single node, the warm batch trace loses nothing,
// rebalancing re-homes shards without re-evaluating, and the kill +
// partition trace delivers every answer bit-identically.
// TestE17WireShape always runs the short variant; it asserts the wire
// contract: all three client paths agree bit for bit, binary is cheaper
// than JSON on the memo hit and the loopback path cheaper than TCP (in
// bytes and allocations), and a killed-and-
// restarted node replays the warm trace entirely cache-served with zero
// re-evaluations, in milliseconds.
func TestE17WireShape(t *testing.T) {
	res, err := E17Wire(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	if res.InteropMismatches != 0 {
		t.Errorf("%d client paths diverged from the JSON reference", res.InteropMismatches)
	}
	// Counted, not timed (the table prints the µs; bench/ judges timing by
	// paired runs): each path is cheaper than the last in allocations per
	// memo hit. Measured 161 / 126 / 60 (156 / 136 / 70 before a hit was
	// answered with its memo entry's wire form and arguments stayed
	// core.Values; the JSON path pays 5 for its two edge translations).
	if res.BinAllocs >= res.JSONAllocs {
		t.Errorf("binary memo hit (%.1f allocs) not cheaper than JSON (%.1f allocs)", res.BinAllocs, res.JSONAllocs)
	}
	if res.LoopAllocs >= res.BinAllocs {
		t.Errorf("loopback memo hit (%.1f allocs) not cheaper than binary TCP (%.1f allocs)", res.LoopAllocs, res.BinAllocs)
	}
	if res.BinBytes >= res.JSONBytes {
		t.Errorf("binary response (%d B) not smaller than JSON (%d B)", res.BinBytes, res.JSONBytes)
	}
	if res.SnapshotMemo == 0 {
		t.Error("restarted node loaded no memo entries from its snapshot")
	}
	if res.RestartMillis > 1000 {
		t.Errorf("restart recovery took %.1f ms, want well under a second", res.RestartMillis)
	}
	if got := float64(res.ReplayServed) / float64(res.ReplayTotal); got < 0.95 {
		t.Errorf("replay only %.0f%% cache-served, want >= 95%%", 100*got)
	}
	if res.ReplayEvalDelta != 0 {
		t.Errorf("replay re-evaluated %d times, want 0", res.ReplayEvalDelta)
	}
	if res.ReplayMismatches != 0 {
		t.Errorf("%d replay answers diverged from the pre-restart reference", res.ReplayMismatches)
	}
}

func TestE16FleetShape(t *testing.T) {
	res, err := E16Fleet(true)
	if err != nil {
		t.Fatal(err)
	}
	// Scale-out in counts (the table prints the speedup): the single node
	// runs every evaluation on its one worker; the fleet's busiest node
	// must run at most half of the fleet's, and the router places every
	// request of the trace.
	if res.ScaleEvals == 0 || 2*res.ScaleEvalsMax > res.ScaleEvals {
		t.Errorf("fleet spread too narrow: busiest node ran %d of %d evaluations, want <= half",
			res.ScaleEvalsMax, res.ScaleEvals)
	}
	if res.ScaleRouted != uint64(res.TraceLen) {
		t.Errorf("router placed %d requests of a %d-request trace", res.ScaleRouted, res.TraceLen)
	}
	if res.ScaleMismatches != 0 {
		t.Errorf("%d fleet answers diverged from the single-node reference", res.ScaleMismatches)
	}
	if res.BatchFailures != 0 {
		t.Errorf("%d batch items failed", res.BatchFailures)
	}
	if res.BatchHitRate < 0.90 {
		t.Errorf("batch cache-served rate %.4f, want >= 0.90", res.BatchHitRate)
	}
	if res.BalanceMin == 0 {
		t.Error("a fleet node served no batch items — sharding is broken")
	}
	if res.RebalanceEvalDelta != 0 {
		t.Errorf("rebalance re-evaluated %d times, want 0 (peer cache re-homing)", res.RebalanceEvalDelta)
	}
	if res.RebalancePeerHits == 0 {
		t.Error("rebalance never touched a peer cache — nothing was re-homed")
	}
	if res.RebalanceMismatches != 0 {
		t.Errorf("%d rebalanced answers changed", res.RebalanceMismatches)
	}
	if res.FaultFailed != 0 || res.FaultSucceeded != res.FaultOffered {
		t.Errorf("fault trace: %d/%d answered, %d failed — lost requests",
			res.FaultSucceeded, res.FaultOffered, res.FaultFailed)
	}
	if res.FaultMismatches != 0 {
		t.Errorf("%d faulted answers diverged from the fault-free reference", res.FaultMismatches)
	}
	if res.Killed == "" || res.Partitioned == "" {
		t.Errorf("faults never landed (killed=%q partitioned=%q)", res.Killed, res.Partitioned)
	}
	if res.FaultFailovers == 0 {
		t.Error("router never failed over — the faults were invisible")
	}
}

// TestE18SchedShape always runs the short cluster (the ~4000-node /
// ~1M-task run renders through TestAllTablesRender); it asserts the
// scheduling contract: the interface-driven policy beats the utilization
// baseline on energy at equal-or-better QoS, the carbon-aware variant
// cuts grams further under the time-varying intensity trace, every
// demand/cost resolution went over the fleet wire, and repeat runs are
// bit-identical.
func TestE18SchedShape(t *testing.T) {
	res, err := E18SchedFleet(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	if res.Interface.Energy >= res.Utilization.Energy {
		t.Errorf("interface energy %v !< baseline %v", res.Interface.Energy, res.Utilization.Energy)
	}
	if res.Interface.UnmetFraction() > res.Utilization.UnmetFraction() {
		t.Errorf("interface QoS (%.3f unmet) worse than baseline (%.3f)",
			res.Interface.UnmetFraction(), res.Utilization.UnmetFraction())
	}
	if res.Interface.UnmetFraction() > 0.01 {
		t.Errorf("interface policy backlog %.4f, want < 1%%", res.Interface.UnmetFraction())
	}
	if res.Utilization.UnmetCycles <= 0 {
		t.Error("baseline shows no escalation lag; the comparison is vacuous")
	}
	if res.Carbon.CarbonGrams >= res.Interface.CarbonGrams {
		t.Errorf("carbon policy grams %.1f !< interface grams %.1f",
			res.Carbon.CarbonGrams, res.Interface.CarbonGrams)
	}
	if res.Utilization.Fleet.Items != 0 {
		t.Errorf("baseline issued %d fleet items, want 0", res.Utilization.Fleet.Items)
	}
	if res.Interface.Fleet.Items == 0 || res.Carbon.Fleet.Items == 0 {
		t.Error("fleet-backed policies issued no wire queries")
	}
	if res.HitRate < 0.5 {
		t.Errorf("canonical round queries only %.0f%% cache-served", 100*res.HitRate)
	}
	if !res.Deterministic {
		t.Errorf("repeat interface run diverged (digest %016x)", res.Interface.PlacementHash)
	}
}

// TestE19AutooptShape pins the auto-optimizer acceptance criteria on
// the MoE stack: a non-trivial frontier, an SLO pick that saves >= 20%
// energy over max-performance, a repeat sweep >= 90% memo-served and
// bit-identical at a different parallelism, and a pure-client
// /v1/evalbatch sweep that reproduces the served digest.
func TestE19AutooptShape(t *testing.T) {
	res, err := E19Autoopt(testing.Short())
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontierSize < 5 {
		t.Errorf("frontier has %d points, want >= 5", res.FrontierSize)
	}
	if res.Recommended.LatencyMs > res.SLOMs {
		t.Errorf("recommended point p99 %.2f ms violates SLO %g ms", res.Recommended.LatencyMs, res.SLOMs)
	}
	if res.SavingsFrac < 0.20 {
		t.Errorf("SLO pick saves %.1f%%, want >= 20%%", 100*res.SavingsFrac)
	}
	if !res.Deterministic {
		t.Errorf("repeat sweep diverged from digest %016x", res.Digest)
	}
	if res.RepeatHitRate < 0.90 {
		t.Errorf("repeat sweep only %.0f%% memo-served, want >= 90%%", 100*res.RepeatHitRate)
	}
	if !res.ClientMatch {
		t.Errorf("pure-client sweep diverged from served digest %016x", res.Digest)
	}
	if res.EnergySupport < 50 {
		t.Errorf("energy support %d outcomes; the MoE fixture should be genuinely multimodal", res.EnergySupport)
	}
}
