package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"

	"seculator"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/serve"
	"seculator/internal/sim"
)

// The output checks. Each returns nil for a right value and an error that
// says what is wrong otherwise; checks_test.go feeds each a wrong value.

// referenceSum is the FNV-1a checksum of a tensor's dimensions and data
// (each a big-endian uint32), the fingerprint the serving API documents
// for InferResponse.output_sum. It is computed here, from the unprotected
// nn.ForwardNetwork output, not by the server's own code.
func referenceSum(t *nn.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.BigEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	put(uint32(t.Chans))
	put(uint32(t.H))
	put(uint32(t.W))
	for _, v := range t.Data {
		put(uint32(v))
	}
	return h.Sum64()
}

// checkOutputSum compares a served output checksum with the reference.
func checkOutputSum(got, want uint64) error {
	if got != want {
		return fmt.Errorf("output_sum %#x, reference %#x", got, want)
	}
	return nil
}

// checkBreachRefusal requires a replay-laced session inference to be
// refused as a security breach: 409 with a breach class.
func checkBreachRefusal(status int, class string) error {
	if status != http.StatusConflict {
		return fmt.Errorf("replayed session inference answered %d, want %d", status, http.StatusConflict)
	}
	switch class {
	case serve.ClassIntegrity, serve.ClassFreshness, serve.ClassChannel:
		return nil
	}
	return fmt.Errorf("replayed session inference refused with class %q, want a breach class", class)
}

// checkDetection checks the behavioural Table 5 matrix: every protected
// design detects every attack, the unprotected Baseline is silently
// corrupted by every attack, and every honest run is clean.
func checkDetection(cells []seculator.DetectionCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("detection matrix is empty")
	}
	designs := map[seculator.Design]bool{}
	for _, c := range cells {
		designs[c.Design] = true
		switch {
		case c.Attack == seculator.AttackNone:
			if c.Detected || c.Corrupted {
				return fmt.Errorf("%v: honest run reported detected=%v corrupted=%v", c.Design, c.Detected, c.Corrupted)
			}
		case c.Design == seculator.Baseline:
			if c.Detected || !c.Corrupted {
				return fmt.Errorf("Baseline under %v: want SILENT-CORRUPT, got detected=%v corrupted=%v", c.Attack, c.Detected, c.Corrupted)
			}
		default:
			if !c.Detected {
				return fmt.Errorf("%v under %v: attack not detected", c.Design, c.Attack)
			}
		}
	}
	if !designs[seculator.Baseline] || !designs[seculator.Seculator] {
		return fmt.Errorf("detection matrix lacks Baseline or Seculator rows")
	}
	return nil
}

// checkCycles checks Figure 7's simulated cycles on every network:
// Baseline ≤ Seculator < Secure, TNPU and GuardNN.
func checkCycles(points []seculator.PerfPoint) error {
	byNet := map[string]map[seculator.Design]uint64{}
	var order []string
	for _, p := range points {
		if byNet[p.Network] == nil {
			byNet[p.Network] = map[seculator.Design]uint64{}
			order = append(order, p.Network)
		}
		byNet[p.Network][p.Design] = p.Cycles
	}
	if len(order) == 0 {
		return fmt.Errorf("figure 7 has no points")
	}
	for _, n := range order {
		c := byNet[n]
		sec, ok := c[seculator.Seculator]
		if !ok || c[seculator.Baseline] == 0 {
			return fmt.Errorf("%s: figure 7 lacks Baseline or Seculator cycles", n)
		}
		if sec < c[seculator.Baseline] {
			return fmt.Errorf("%s: Seculator %d cycles, below Baseline %d", n, sec, c[seculator.Baseline])
		}
		for _, d := range []seculator.Design{seculator.Secure, seculator.TNPU, seculator.GuardNN} {
			if other, ok := c[d]; !ok || sec >= other {
				return fmt.Errorf("%s: Seculator %d cycles, not below %v %d", n, sec, d, other)
			}
		}
	}
	return nil
}

// checkNoMetadata requires a Seculator run to move no metadata blocks: no
// MAC lines, counters, tree nodes or tables.
func checkNoMetadata(network string, t mem.TrafficStats) error {
	for _, k := range []sim.Traffic{sim.MACTraffic, sim.CounterTraffic, sim.MerkleTraffic, sim.TableTraffic} {
		if n := t.ByKind(k); n != 0 {
			return fmt.Errorf("%s: Seculator moved %d %v blocks, want 0", network, n, k)
		}
	}
	return nil
}

// checkIdentical requires a later evaluation pass to render exactly the
// tables of the first.
func checkIdentical(first, got string) error {
	if got == first {
		return nil
	}
	i := 0
	for i < len(first) && i < len(got) && first[i] == got[i] {
		i++
	}
	return fmt.Errorf("evaluation pass renders differently from the first pass at byte %d", i)
}
