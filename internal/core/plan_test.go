package core

import (
	"fmt"
	"sync"
	"testing"

	"energyclarity/internal/energy"
)

// planDev builds the bound child of planTree. With lanes it declares a
// second ECV, one with a zero-probability point, and its body reads it.
func planDev(hot float64, lanes bool) *Interface {
	dev := New("dev").MustECV(BoolECV("hot", hot, ""))
	if lanes {
		dev.MustECV(NumECV("lanes", []float64{1, 2, 4}, []float64{0.5, 0, 0.5}, ""))
	}
	return dev.MustMethod(Method{Name: "cost", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
		j := 0.3 * c.Num(0)
		if c.ECVBool("hot") {
			j = 1.7 * c.Num(0)
		}
		if lanes {
			j /= c.ECVNum("lanes")
		}
		return energy.Joules(j)
	}})
}

// planTree is mcTree over the given child: the root's lvl has
// zero-probability points, so its enumeration and sampling dimensions
// differ, and the body reads dev only on some paths.
func planTree(dev *Interface) *Interface {
	return New("svc").
		MustECV(NumECV("lvl", []float64{1, 2, 3, 4, 5}, []float64{0.3, 0, 0.45, 0.25, 0}, "")).
		MustECV(BoolECV("miss", 0.6, "")).
		MustECV(BoolECV("unread", 0.5, "")).
		MustBind("dev", dev).
		MustMethod(Method{Name: "run", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
			j := energy.Joules(c.ECVNum("lvl") / 3)
			if c.ECVBool("miss") {
				j += 10
			}
			if c.ECVNum("lvl") < 3 {
				j += c.E("dev", "cost", c.Arg(0))
			}
			return j
		}})
}

// planModes are the evaluations the plan serves: enumeration, its point
// modes, both Monte Carlo paths, and a pinned request that splits the plan
// — each interpreted and through a compiled program.
func planModes() map[string]EvalOptions {
	modes := map[string]EvalOptions{
		"expected":         Expected(),
		"worst-case":       WorstCase(),
		"monte-carlo":      MonteCarlo(4096, 5),
		"monte-carlo/wide": {Mode: ModeMonteCarlo, Samples: 300, Seed: 9, EnumLimit: 2},
		"pinned":           {Mode: ModeExpected, Fixed: map[string]Value{"miss": Bool(true), "dev.hot": Bool(false)}},
	}
	for name, opts := range modes {
		opts.Interpret = true
		modes[name+"/interpreted"] = opts
	}
	return modes
}

// TestPlanFollowsTreeVersion: the ECV plan and the layouts cached on it
// belong to one tree version. Mutating a bound child (SetECV), binding a
// new one (Bind) or rebinding a copy (Rebind) between evaluations gives
// the bits a freshly built tree of the same shape gives, in every mode,
// with evaluations running concurrently on each version; the tree Rebind
// copied answers as before. Every scratch buffer comes back each time.
func TestPlanFollowsTreeVersion(t *testing.T) {
	// A compiler that compiles any tree, observing every ECV it has at the
	// version it compiles: deps, and so the layouts, change with the tree.
	RegisterCompiler(func(root *Interface, method string) (CompiledProgram, error) {
		var observes []string
		for _, q := range root.TransitiveECVs() {
			observes = append(observes, q.QualifiedName())
		}
		return &fakeProgram{iface: root, method: method, observes: observes, bulk: true}, nil
	})
	t.Cleanup(func() { RegisterCompiler(nil) })

	check := func(step string, got, fresh *Interface) {
		t.Helper()
		modes := planModes()
		want := map[string]energy.Dist{}
		for name, opts := range modes {
			d, err := fresh.Eval("run", []Value{Num(7)}, opts)
			if err != nil {
				t.Fatalf("%s %s: fresh tree: %v", step, name, err)
			}
			want[name] = d
		}
		scratch := energy.ScratchOutstanding()
		var wg sync.WaitGroup
		errs := make(chan error, 4*len(modes))
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for name, opts := range modes {
					d, err := got.Eval("run", []Value{Num(7)}, opts)
					if err != nil {
						errs <- fmt.Errorf("%s %s: %v", step, name, err)
						return
					}
					if !sameBits(d, want[name]) {
						errs <- fmt.Errorf("%s %s: %v, a fresh tree answers %v", step, name, d, want[name])
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if left := energy.ScratchOutstanding() - scratch; left != 0 {
			t.Errorf("%s: %d scratch buffers not returned", step, left)
		}
	}

	tree := planTree(planDev(0.25, false))
	check("built", tree, planTree(planDev(0.25, false)))

	if err := tree.Binding("dev").SetECV(BoolECV("hot", 0.75, "")); err != nil {
		t.Fatal(err)
	}
	check("SetECV on the bound child", tree, planTree(planDev(0.75, false)))

	if err := tree.Bind("dev", planDev(0.5, true)); err != nil {
		t.Fatal(err)
	}
	check("Bind", tree, planTree(planDev(0.5, true)))

	copied, err := tree.Rebind("dev", planDev(0.1, false))
	if err != nil {
		t.Fatal(err)
	}
	check("Rebind", copied, planTree(planDev(0.1, false)))
	check("the tree Rebind copied", tree, planTree(planDev(0.5, true)))
}

func sameBits(a, b energy.Dist) bool {
	as, ap := a.View()
	bs, bp := b.View()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] || ap[i] != bp[i] {
			return false
		}
	}
	return true
}
