package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/mcu"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// zooRound is offline-zoo's fixed round-robin: model and invokes per
// round. The counts are weighted so that, with the models' invoke times
// ordered VWW-2 < KWS-S < KWS-M < AD-S < KWS-L < VWW-1, the pooled median
// falls in the middle of KWS-M's band and the p90 in the middle of
// KWS-L's, rather than on the boundary between two models, where it would
// jump between them from run to run.
var zooRound = []struct {
	model string
	count int
}{
	{"MicroNet-VWW-2", 5},
	{"MicroNet-KWS-S", 6},
	{"MicroNet-KWS-M", 10},
	{"MicroNet-AD-S", 6},
	{"MicroNet-KWS-L", 4},
	{"MicroNet-VWW-1", 1},
}

const (
	// zooInputs is the number of distinct seeded inputs per model.
	zooInputs = 4
	// zooSLO is offline-zoo's per-invoke latency limit.
	zooSLO = 250 * time.Millisecond
	// minSamples keeps every p90 supported: at least 10 samples beyond.
	minSamples = 100
)

// zooModel is one model of the set with its seeded inputs and their
// reference outputs.
type zooModel struct {
	spec   *arch.Spec
	inputs [][]int8
	refs   [][]int8
}

// lowerOpts is how every benchmark model is lowered: int8 with the
// classifier softmax, the serving default.
var lowerOpts = graph.LowerOptions{WeightBits: 8, ActBits: 8, AppendSoftmax: true}

// zooSet is the prepared model set: one interpreter per model.
type zooSet struct {
	models []*graph.Model
	interp []*tflm.Interpreter
}

func runOfflineZoo(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	rng := rand.New(rand.NewSource(cfg.seed))
	weightSeed := cfg.seed

	// Seeded inputs and their kernels.Reference outputs, computed before
	// anything is timed.
	models := make([]*zooModel, len(zooRound))
	for i, r := range zooRound {
		e, err := zoo.Get(r.model)
		if err != nil {
			return nil, err
		}
		zm := &zooModel{spec: e.Spec}
		m, err := graph.FromSpec(e.Spec, rand.New(rand.NewSource(weightSeed)), lowerOpts)
		if err != nil {
			return nil, err
		}
		prep, err := tflm.PrepareWithEngine(m, kernels.Reference)
		if err != nil {
			return nil, err
		}
		ref, err := prep.NewInterpreter(0)
		if err != nil {
			return nil, err
		}
		for k := 0; k < zooInputs; k++ {
			in := randomRow(rng, len(ref.Input()))
			copy(ref.Input(), in)
			if err := ref.Invoke(); err != nil {
				return nil, err
			}
			zm.inputs = append(zm.inputs, in)
			zm.refs = append(zm.refs, append([]int8(nil), ref.Output()...))
		}
		models[i] = zm
	}

	// Set-up: lower and prepare the model set, several times; setup_s is
	// the median CPU time of one set-up.
	setups := cfg.setups
	if setups == 0 {
		setups = 25
	}
	mem, err := watchRSS()
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	cal := &calibrator{}
	var set *zooSet
	var setupS []float64
	for i := 0; i < setups; i++ {
		set = nil
		runtime.GC() // untimed: drop the previous set before timing the next
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		s, err := buildZooSet(models, weightSeed, rec, traced)
		if err != nil {
			return nil, err
		}
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (cpu1 - cpu0).Seconds())
		set = s
	}

	order := roundOrder()
	pass := func(traced bool) (*zooPass, error) {
		c := cal
		if traced {
			c = nil
		}
		return zooRun(ctx, cfg.dur, models, set, order, rec, c, traced)
	}
	plain, err := pass(false)
	if err != nil {
		return nil, err
	}
	o.attempted += plain.n
	o.wrong += plain.wrong
	o.failed += plain.wrong
	peak := mem.peakMB()
	p50, p90, err := latencyPair(plain.lat)
	if err != nil {
		return nil, err
	}
	o.samples = len(plain.lat)
	// Wall-clock closed-loop capacity, as the median over rounds; printed,
	// not gated.
	var rates []float64
	for _, d := range plain.rounds {
		rates = append(rates, float64(len(order))/d.Seconds())
	}
	cpuPerOp := msOf(plain.cpu.Nanoseconds()) / float64(plain.n-plain.wrong)
	o.set("setup_s", median(setupS))
	o.set("cpu_ms_per_op", cpuPerOp*cal.scale())
	within := 0
	for i, l := range plain.lat {
		if l <= msOf(zooSLO.Nanoseconds()) && !plain.bad[i] {
			within++
		}
	}
	o.set("slo_met_frac", float64(within)/float64(plain.n))
	o.set("ok_frac", float64(plain.n-plain.wrong)/float64(plain.n))
	o.set("mem_peak_mb", peak)
	o.notef("round=%d invokes over %d models, %d rounds, %d invokes in %.2fs, every output equal to kernels.Reference: %v",
		len(order), len(models), plain.n/len(order), plain.n, plain.wall.Seconds(), plain.wrong == 0)
	o.notef("wall clock: %.2f invokes/s (median over rounds), latency p50 %.3f ms, p90 %.3f ms; CPU %.2f s over %.2f s",
		median(rates), p50, p90, plain.cpu.Seconds(), plain.wall.Seconds())
	o.notef("%s; unscaled cpu_ms_per_op %.3f ms", cal, cpuPerOp)
	if !traced {
		return o, nil
	}

	o.set("tflm.alloc_kb_per_invoke", plain.allocBytes/1024/float64(plain.n))
	arena := 0
	for _, ip := range set.interp {
		arena += ip.Prepared().Plan().ArenaBytes
	}
	o.set("tflm.arena_kb", float64(arena)/1024)

	tr, err := pass(true)
	if err != nil {
		return nil, err
	}
	o.attempted += tr.n
	o.wrong += tr.wrong
	o.failed += tr.wrong
	self, err := selfTimes(rec.snapshot())
	if err != nil {
		return nil, err
	}
	// Set-up spans: one traced set-up of the whole model set.
	o.set("graph.lower_ms", msOf(self["graph.lower"])/float64(setups))
	o.set("tflm.prepare_ms", msOf(self["tflm.prepare"])/float64(setups))
	perInvoke := func(name string) float64 { return msOf(self[name]) / float64(len(tr.tracedLat)) }
	var kernelMs float64
	for _, k := range kernelKinds {
		v := perInvoke("kernels." + k)
		o.set("kernels."+k+"_ms", v)
		kernelMs += v
	}
	o.set("tflm.dispatch_ms", perInvoke("tflm.invoke"))
	o.set("kernels.gmacs", float64(tr.macs)/(kernelMs*float64(len(tr.tracedLat))*1e6))
	for i, r := range zooRound {
		o.set("tflm.invoke_ms."+r.model, median(tr.tracedByModel[i]))
	}
	overhead := median(tr.tracedLat) - median(tr.plainLat)
	o.set("bench.tracing_overhead_ms.offline-zoo", overhead)
	o.notef("accounting per traced invoke: client %.3f ms = kernels %.3f + dispatch %.3f ms; untraced rounds of the same pass %.3f ms; tracing overhead (p50) %.3f ms",
		mean(tr.tracedLat), kernelMs, perInvoke("tflm.invoke"), mean(tr.plainLat), overhead)

	// §3 cost model: join the traced per-op times against mcu.OpCycles.
	if err := zooCostModel(o, set, tr); err != nil {
		return nil, err
	}
	return o, rec.write(filepath.Join(cfg.out, fmt.Sprintf("offline-zoo-%d.jsonl", cfg.seed)))
}

// buildZooSet lowers and prepares every model with the default engine,
// recording one set-up span per call when traced.
func buildZooSet(models []*zooModel, weightSeed int64, rec *recorder, traced bool) (*zooSet, error) {
	type part struct {
		name       string
		start, end time.Time
	}
	var parts []part
	s := &zooSet{}
	start := time.Now()
	for _, zm := range models {
		t0 := time.Now()
		m, err := graph.FromSpec(zm.spec, rand.New(rand.NewSource(weightSeed)), lowerOpts)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		prep, err := tflm.Prepare(m)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		ip, err := prep.NewInterpreter(0)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part{"graph.lower", t0, t1}, part{"tflm.prepare", t1, t2})
		s.models = append(s.models, m)
		s.interp = append(s.interp, ip)
	}
	if traced {
		root := rec.add(-1, 0, "bench.setup", start.UnixNano(), time.Now().UnixNano())
		for _, p := range parts {
			rec.add(-1, root, p.name, p.start.UnixNano(), p.end.UnixNano())
		}
	}
	return s, nil
}

// roundOrder interleaves zooRound's counts into one round of model
// indices, so no model runs many times back to back.
func roundOrder() []int {
	left := make([]int, len(zooRound))
	total := 0
	for i, r := range zooRound {
		left[i] = r.count
		total += r.count
	}
	var order []int
	for len(order) < total {
		for i := range left {
			if left[i] > 0 {
				order = append(order, i)
				left[i]--
			}
		}
	}
	return order
}

// zooPass is one closed-loop pass over the round-robin.
type zooPass struct {
	n, wrong   int
	wall       time.Duration
	cpu        time.Duration   // this process's CPU time over the rounds
	rounds     []time.Duration // wall time per round
	lat        []float64       // ms per invoke, in order
	bad        []bool          // output differed from the reference
	byModel    [][]float64
	allocBytes float64
	// Traced passes only. Every other round runs with the op timers on;
	// for those rounds: per-op measured ns summed per model and op,
	// invokes and their latencies per model, and the MACs executed. The
	// other rounds' latencies are kept apart to give the overhead.
	opNs                [][]float64
	invokes             []int
	macs                int64
	tracedLat, plainLat []float64
	tracedByModel       [][]float64
}

// zooRun invokes the round-robin until dur has passed and at least
// minSamples invokes were made, comparing every output against the
// reference after its invoke is timed. With a calibrator, it samples the
// calibration after every round, outside the rounds' CPU time.
func zooRun(ctx context.Context, dur time.Duration, models []*zooModel, set *zooSet, order []int, rec *recorder, cal *calibrator, traced bool) (*zooPass, error) {
	cap0 := int(dur/time.Millisecond) + minSamples
	p := &zooPass{byModel: make([][]float64, len(models)), rounds: make([]time.Duration, 0, cap0)}
	for i := range p.byModel {
		p.byModel[i] = make([]float64, 0, cap0)
	}
	type opSpan struct {
		kind       string
		start, end int64
		index      int
		ns         int64
	}
	var ops []opSpan
	timer := func(index int, kind graph.OpKind, name string, ns int64) {
		end := time.Now().UnixNano()
		ops = append(ops, opSpan{kind: opLayer(index, kind), start: end - ns, end: end, index: index, ns: ns})
	}
	if traced {
		p.opNs = make([][]float64, len(models))
		p.invokes = make([]int, len(models))
		p.tracedByModel = make([][]float64, len(models))
		for i, m := range set.models {
			p.opNs[i] = make([]float64, len(m.Ops))
		}
		ops = make([]opSpan, 0, 128)
		for _, ip := range set.interp {
			defer ip.SetOpTimer(nil)
		}
	}
	p.lat = make([]float64, 0, cap0)
	p.bad = make([]bool, 0, cap0)
	out := make([]int8, 0, 64)
	alloc0 := heapAllocBytes()
	start := time.Now()
	var req int64
	for round := 0; time.Since(start) < dur || len(p.lat) < minSamples; round++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		traceRound := traced && round%2 == 1
		if traced {
			for _, ip := range set.interp {
				if traceRound {
					ip.SetOpTimer(timer)
				} else {
					ip.SetOpTimer(nil)
				}
			}
		}
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		roundStart := time.Now()
		for _, mi := range order {
			ip := set.interp[mi]
			k := len(p.byModel[mi]) % zooInputs
			copy(ip.Input(), models[mi].inputs[k])
			ops = ops[:0]
			t0 := time.Now()
			if err := ip.Invoke(); err != nil {
				return nil, err
			}
			t1 := time.Now()
			out = append(out[:0], ip.Output()...)
			ms := msOf(t1.Sub(t0).Nanoseconds())
			bad := !equalRows(out, models[mi].refs[k])
			if bad {
				p.wrong++
			}
			p.lat = append(p.lat, ms)
			p.bad = append(p.bad, bad)
			p.byModel[mi] = append(p.byModel[mi], ms)
			switch {
			case traceRound:
				req++
				parent := rec.add(req, 0, "tflm.invoke", t0.UnixNano(), t1.UnixNano())
				for _, s := range ops {
					rec.add(req, parent, s.kind, s.start, s.end)
					p.opNs[mi][s.index] += float64(s.ns)
				}
				p.invokes[mi]++
				p.macs += set.models[mi].TotalMACs()
				p.tracedLat = append(p.tracedLat, ms)
				p.tracedByModel[mi] = append(p.tracedByModel[mi], ms)
			case traced:
				p.plainLat = append(p.plainLat, ms)
			}
		}
		p.rounds = append(p.rounds, time.Since(roundStart))
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		p.cpu += cpu1 - cpu0
		if cal != nil {
			if err := cal.sample(); err != nil {
				return nil, err
			}
		}
	}
	p.wall = time.Since(start)
	p.allocBytes = float64(heapAllocBytes() - alloc0)
	p.n = len(p.lat)
	return p, nil
}

// kernelKinds are the op kinds the kernels layer is reported by.
var kernelKinds = []string{"first_conv", "conv", "dwconv", "dense", "pool", "other"}

// opLayer names the kernels layer span of one op: the model's first op
// is reported on its own as the small-K first convolution.
func opLayer(index int, kind graph.OpKind) string {
	switch {
	case index == 0 && kind == graph.OpConv2D:
		return "kernels.first_conv"
	case kind == graph.OpConv2D:
		return "kernels.conv"
	case kind == graph.OpDWConv2D:
		return "kernels.dwconv"
	case kind == graph.OpDense:
		return "kernels.dense"
	case kind == graph.OpAvgPool || kind == graph.OpMaxPool:
		return "kernels.pool"
	default:
		return "kernels.other"
	}
}

// zooCostModel joins each model's mean traced per-op times against the
// §3 cost model and records R², the fitted ns per predicted cycle and
// the measured/predicted ratio per op kind.
func zooCostModel(o *outcome, set *zooSet, tr *zooPass) error {
	var r2s []float64
	measured := map[string]float64{}
	predicted := map[string]float64{}
	var totM, totP float64
	for i, m := range set.models {
		if tr.invokes[i] == 0 {
			continue
		}
		ns := make([]float64, len(m.Ops))
		for j := range ns {
			ns[j] = tr.opNs[i][j] / float64(tr.invokes[i])
		}
		prof, err := mcu.JoinProfile(m, ns, tr.invokes[i])
		if err != nil {
			return err
		}
		r2s = append(r2s, prof.R2)
		for j, op := range prof.Ops {
			kind := strings.TrimPrefix(opLayer(j, m.Ops[j].Kind), "kernels.")
			measured[kind] += op.MeasuredNs
			predicted[kind] += op.PredictedCycles
			totM += op.MeasuredNs
			totP += op.PredictedCycles
		}
		o.notef("mcu.JoinProfile %s: r2=%.3f ns/cycle=%.3f", m.Name, prof.R2, prof.NsPerCycle)
	}
	nsPerCycle := totM / totP
	o.set("mcu.r2", mean(r2s))
	o.set("mcu.ns_per_cycle", nsPerCycle)
	for _, k := range kernelKinds {
		ratio := 0.0
		if predicted[k] > 0 {
			ratio = measured[k] / (nsPerCycle * predicted[k])
		}
		o.set("mcu.ratio."+k, ratio)
	}
	return nil
}

// equalRows is the offline correctness check: bit-exact equality of a
// timed output with its reference.
func equalRows(a, b []int8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomRow is a seeded int8 input row.
func randomRow(rng *rand.Rand, n int) []int8 {
	row := make([]int8, n)
	for i := range row {
		row[i] = int8(rng.Intn(256) - 128)
	}
	return row
}

// latencyPair returns the median and the p90 of ms samples, enforcing the
// sample-count rule on the p90.
func latencyPair(lat []float64) (float64, float64, error) {
	p90, err := tailPercentile(lat, 0.9)
	if err != nil {
		return 0, 0, err
	}
	return median(lat), p90, nil
}
