package main

import (
	"context"
	"fmt"
	"time"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// probeBudget bounds each timed loop of a traced run's module probes.
const probeBudget = 200 * time.Millisecond

// timeLoop calls f at least min times and until probeBudget has passed,
// and returns the mean time per call.
func timeLoop(min int, f func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for n < min || time.Since(start) < probeBudget {
		if err := f(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// layerMetric names the per-layer-type metric of each DNN layer type.
var layerMetric = map[workload.LayerType]string{
	workload.Conv:      "secure.conv_ms",
	workload.Depthwise: "secure.depthwise_ms",
	workload.Pointwise: "secure.pointwise_ms",
	workload.Pool:      "secure.pool_ms",
	workload.FC:        "secure.fc_ms",
}

// moduleTimes is one network's module probe, per request.
type moduleTimes struct {
	randomModel, forward, provision, residentRun float64 // ms
	byType                                       map[string]float64
	blocks                                       float64
}

func (a *moduleTimes) add(b moduleTimes) {
	a.randomModel += b.randomModel
	a.forward += b.forward
	a.provision += b.provision
	a.residentRun += b.residentRun
	a.blocks += b.blocks
	if a.byType == nil {
		a.byType = map[string]float64{}
	}
	for k, v := range b.byType {
		a.byType[k] += v
	}
}

func (a *moduleTimes) scale(f float64) {
	a.randomModel *= f
	a.forward *= f
	a.provision *= f
	a.residentRun *= f
	a.blocks *= f
	for k := range a.byType {
		a.byType[k] *= f
	}
}

func (a moduleTimes) into(m map[string]float64) {
	m["nn.random_model_ms"] = a.randomModel
	m["nn.forward_ms"] = a.forward
	m["secure.provision_ms"] = a.provision
	m["secure.resident_run_ms"] = a.residentRun
	m["secure.blocks_per_req"] = a.blocks
	for _, name := range layerMetric {
		m[name] = a.byType[name]
	}
}

// probeNetwork times net's modules on the workload's own requests: pool
// entries' model seeds and inputs, round-robin.
func probeNetwork(ctx context.Context, net workload.Network, pool []refRequest) (moduleTimes, error) {
	cfg := runner.DefaultConfig()
	mt := moduleTimes{byType: map[string]float64{}}
	input := func(r refRequest) *nn.Tensor {
		in, _ := nn.RandomModel(net, r.seed)
		if r.input != nil {
			copy(in.Data, r.input)
		}
		return in
	}

	i := 0
	d, err := timeLoop(3, func() error {
		nn.RandomModel(net, pool[i%len(pool)].seed)
		i++
		return nil
	})
	if err != nil {
		return mt, err
	}
	mt.randomModel = ms(d)

	r0 := pool[0]
	_, ws := nn.RandomModel(net, r0.seed)
	in := input(r0)
	d, err = timeLoop(3, func() error {
		_, err := nn.ForwardNetwork(net, in, ws)
		return err
	})
	if err != nil {
		return mt, err
	}
	mt.forward = ms(d)

	var res *secure.WeightResidency
	d, err = timeLoop(3, func() error {
		var err error
		res, err = secure.BuildWeightResidency(ctx, net, cfg.NPU, cfg.DRAM, secure.DefaultSecret, secure.DefaultRandom, ws)
		return err
	})
	if err != nil {
		return mt, err
	}
	mt.provision = ms(d)

	// The resident run, timed per DNN layer from the executor's own layer
	// boundaries: OnPlan fires once the address plan is laid out, and
	// OnLayerMACs as each layer's event stream and verification close.
	x := secure.NewExecutor()
	x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
	x.Residency = res
	var prev time.Time
	byType := map[string]time.Duration{}
	x.OnPlan = func(secure.PlanInfo) { prev = time.Now() }
	x.OnLayerMACs = func(phase int, _ protect.RegisterState) {
		now := time.Now()
		if phase < len(net.Layers) {
			if name, ok := layerMetric[net.Layers[phase].Type]; ok {
				byType[name] += now.Sub(prev)
			}
		}
		prev = now
	}
	runs, blocks := 0, 0
	d, err = timeLoop(3, func() error {
		prev = time.Now()
		fr, err := x.Run(ctx, net, in, res.Weights())
		if err != nil {
			return err
		}
		if got := referenceSum(fr.Output); got != r0.want {
			return fmt.Errorf("resident run output %#x, reference %#x", got, r0.want)
		}
		runs++
		blocks += fr.Blocks
		return nil
	})
	if err != nil {
		return mt, err
	}
	mt.residentRun = ms(d)
	mt.blocks = float64(blocks) / float64(runs)
	for name, t := range byType {
		mt.byType[name] = ms(t) / float64(runs)
	}
	return mt, nil
}

// kernelSink keeps the probed kernels' results live.
var kernelSink byte

// probeKernels times the crypto and MAC kernels per 64-byte block: AES-CTR
// over a 64-block row, one block MAC, and the batched row MAC fold.
func probeKernels(m map[string]float64) {
	const blocks = 64
	src := make([]byte, blocks*64)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, len(src))
	e := crypto.NewCTR(secure.DefaultSecret, secure.DefaultRandom)
	ctr := crypto.Counter{Fmap: 1, Layer: 2, VN: 3}
	d, _ := timeLoop(3, func() error {
		e.EncryptBlocks(dst, src, ctr, blocks)
		ctr.VN++
		return nil
	})
	m["crypto.ctr_ns_per_block"] = float64(d) / blocks
	kernelSink ^= dst[0]

	ref := mac.BlockRef{Secret: secure.DefaultSecret, Layer: 2, Fmap: 1, VN: 3}
	d, _ = timeLoop(3, func() error {
		for b := 0; b < blocks; b++ {
			ref.Index = uint32(b)
			kernelSink ^= mac.BlockMAC(ref, src[b*64:(b+1)*64])[0]
		}
		return nil
	})
	m["mac.block_mac_ns"] = float64(d) / blocks

	var h mac.RowHasher
	d, _ = timeLoop(3, func() error {
		dg, _ := h.FoldRow(ref, src)
		kernelSink ^= dg[0]
		return nil
	})
	m["mac.fold_row_ns_per_block"] = float64(d) / blocks
}
