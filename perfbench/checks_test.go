package main

import (
	"net/http"
	"sync/atomic"
	"testing"

	"seculator"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/serve"
	"seculator/internal/sim"
)

// Each check passes on a right value and fails on a wrong one.

func TestReferenceSumMatchesWireChecksum(t *testing.T) {
	x := nn.NewTensor(3, 4, 5)
	x.Randomize(7)
	if got, want := referenceSum(x), serve.OutputSum(x); got != want {
		t.Fatalf("referenceSum %#x, serve.OutputSum %#x", got, want)
	}
	y := nn.NewTensor(3, 4, 5)
	copy(y.Data, x.Data)
	y.Data[11]++
	if referenceSum(y) == referenceSum(x) {
		t.Fatal("a changed element leaves the checksum unchanged")
	}
}

func TestCheckOutputSum(t *testing.T) {
	if err := checkOutputSum(42, 42); err != nil {
		t.Fatal(err)
	}
	if checkOutputSum(42, 43) == nil {
		t.Fatal("wrong checksum accepted")
	}
}

func TestCheckBreachRefusal(t *testing.T) {
	for _, class := range []string{serve.ClassIntegrity, serve.ClassFreshness, serve.ClassChannel} {
		if err := checkBreachRefusal(http.StatusConflict, class); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []struct {
		status int
		class  string
	}{
		{http.StatusOK, ""},
		{http.StatusConflict, serve.ClassInternal},
		{http.StatusInternalServerError, serve.ClassIntegrity},
	} {
		if checkBreachRefusal(bad.status, bad.class) == nil {
			t.Fatalf("status %d class %q accepted as a breach refusal", bad.status, bad.class)
		}
	}
}

// goodMatrix is a detection matrix with the expected outcome in every cell.
func goodMatrix() []seculator.DetectionCell {
	attacks := []seculator.DetectionAttack{seculator.AttackNone, seculator.AttackTamper, seculator.AttackReplay,
		seculator.AttackReplayWithMAC, seculator.AttackSplice, seculator.AttackSpliceWithMAC}
	var cells []seculator.DetectionCell
	for _, d := range []seculator.Design{seculator.Baseline, seculator.Secure, seculator.TNPU, seculator.GuardNN, seculator.Seculator} {
		for _, a := range attacks {
			c := seculator.DetectionCell{Design: d, Attack: a}
			switch {
			case a == seculator.AttackNone:
			case d == seculator.Baseline:
				c.Corrupted = true
			default:
				c.Detected = true
			}
			cells = append(cells, c)
		}
	}
	return cells
}

func TestCheckDetection(t *testing.T) {
	if err := checkDetection(goodMatrix()); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(c *seculator.DetectionCell){
		"protected design misses an attack": func(c *seculator.DetectionCell) {
			if c.Design == seculator.Seculator && c.Attack == seculator.AttackReplayWithMAC {
				c.Detected = false
			}
		},
		"baseline detects": func(c *seculator.DetectionCell) {
			if c.Design == seculator.Baseline && c.Attack == seculator.AttackTamper {
				c.Detected = true
			}
		},
		"baseline not corrupted": func(c *seculator.DetectionCell) {
			if c.Design == seculator.Baseline && c.Attack == seculator.AttackSplice {
				c.Corrupted = false
			}
		},
		"honest run flagged": func(c *seculator.DetectionCell) {
			if c.Design == seculator.TNPU && c.Attack == seculator.AttackNone {
				c.Detected = true
			}
		},
	}
	for name, mutate := range mutations {
		cells := goodMatrix()
		for i := range cells {
			mutate(&cells[i])
		}
		if checkDetection(cells) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if checkDetection(nil) == nil {
		t.Error("empty matrix accepted")
	}
}

func goodPoints() []seculator.PerfPoint {
	cycles := map[seculator.Design]uint64{
		seculator.Baseline: 100, seculator.Secure: 190, seculator.TNPU: 150,
		seculator.GuardNN: 140, seculator.Seculator: 104, seculator.SeculatorPlus: 120,
	}
	var ps []seculator.PerfPoint
	for _, n := range []string{"MobileNet", "VGG16"} {
		for _, d := range seculator.Designs() {
			ps = append(ps, seculator.PerfPoint{Network: n, Design: d, Cycles: cycles[d]})
		}
	}
	return ps
}

func TestCheckCycles(t *testing.T) {
	if err := checkCycles(goodPoints()); err != nil {
		t.Fatal(err)
	}
	set := func(net string, d seculator.Design, v uint64) []seculator.PerfPoint {
		ps := goodPoints()
		for i := range ps {
			if ps[i].Network == net && ps[i].Design == d {
				ps[i].Cycles = v
			}
		}
		return ps
	}
	for name, ps := range map[string][]seculator.PerfPoint{
		"Seculator below Baseline": set("VGG16", seculator.Seculator, 99),
		"Seculator equals GuardNN": set("MobileNet", seculator.Seculator, 140),
		"Seculator above TNPU":     set("VGG16", seculator.Seculator, 151),
		"Secure not above":         set("MobileNet", seculator.Secure, 104),
		"no points":                nil,
	} {
		if checkCycles(ps) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckNoMetadata(t *testing.T) {
	var tr mem.TrafficStats
	tr.ReadBlocks[sim.DataTraffic] = 1000
	tr.WriteBlocks[sim.PaddingTraffic] = 0
	if err := checkNoMetadata("VGG16", tr); err != nil {
		t.Fatal(err)
	}
	for _, k := range []sim.Traffic{sim.MACTraffic, sim.CounterTraffic, sim.MerkleTraffic, sim.TableTraffic} {
		bad := tr
		bad.WriteBlocks[k] = 1
		if checkNoMetadata("VGG16", bad) == nil {
			t.Errorf("%v block accepted", k)
		}
	}
}

func TestCheckIdentical(t *testing.T) {
	if err := checkIdentical("table\n1 2\n", "table\n1 2\n"); err != nil {
		t.Fatal(err)
	}
	if checkIdentical("table\n1 2\n", "table\n1 3\n") == nil {
		t.Fatal("different rendering accepted")
	}
}

// TestRealMatrixPasses runs the real detection matrix through its check.
func TestRealMatrixPasses(t *testing.T) {
	cells, err := seculator.DetectionMatrix(seculator.DefaultAttackScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDetection(cells); err != nil {
		t.Fatal(err)
	}
}

// TestServedChecks drives a real server: a right reference passes, a
// wrong one is caught, and a replay-laced session inference is refused.
func TestServedChecks(t *testing.T) {
	spec := servingSpec{name: "test", nets: []string{"Mini"}, pinned: true, session: true, limit: 1e9}
	pools, err := spec.references(5)
	if err != nil {
		t.Fatal(err)
	}
	var lace atomic.Bool
	tg, err := spec.start(&lace, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.stop()
	if err := spec.warm(tg, pools, 2); err != nil {
		t.Fatal(err)
	}
	r := pools[0][3]
	if _, ok, wrong, why := tg.infer(inferBody(r, ""), r.want); !ok || wrong {
		t.Fatalf("right reference rejected: %s", why)
	}
	if _, ok, wrong, _ := tg.infer(inferBody(r, tg.sessions[1]), r.want^1); ok || !wrong {
		t.Fatal("wrong reference accepted")
	}
	if err := spec.replayCheck(tg, &lace, r); err != nil {
		t.Fatal(err)
	}
}
