package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/search"
	"micronets/internal/tflm"
)

const (
	// nasTrials is the fixed trial count per task per sweep; cost per
	// trial grows with the frontier, so the count is never varied.
	nasTrials = 1000
	// nasWarmTrials is the set-up sweep: the harness's first results.
	nasWarmTrials = 64
	// nasReeval is how many logged trials are re-evaluated per pass.
	nasReeval = 1000
	// nasSLO is the per-candidate search.Evaluate latency limit.
	nasSLO = 50 * time.Millisecond
	// nasEvalSeed is the synthetic-weight seed search.Evaluate lowers
	// with; the traced re-timing of its parts lowers the same way.
	nasEvalSeed = 1
)

var nasTasks = []string{"kws", "ad"}

// nasPass is one measured pass: whole sweeps, then a re-evaluation of a
// seeded sample of their logged trials.
type nasPass struct {
	sweepWall  []time.Duration
	cpu        time.Duration // this process's CPU time in the sweeps
	trials     int
	errTrials  int
	feasible   int
	frontier   []int // final frontier size per task run
	allocBytes float64
	sample     []*search.TrialRecord
	lat        []float64 // ms per re-evaluation
	bad        []bool
	wrong      int
	// A traced pass traces every other re-evaluation and keeps the two
	// halves' latencies apart.
	tracedLat, plainLat []float64
}

func runNASSweep(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	dev, err := mcu.ByClass("M")
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	sweep := func(seed int64, trials int) ([]*search.Result, error) {
		var out []*search.Result
		for _, task := range nasTasks {
			res, err := search.Run(ctx, search.Config{
				Task: task, Device: dev, Trials: trials, Workers: workers, Seed: seed,
			})
			if err != nil {
				return nil, fmt.Errorf("search %s: %w", task, err)
			}
			out = append(out, res)
		}
		return out, nil
	}

	setups := cfg.setups
	if setups == 0 {
		setups = 15
	}
	mem, err := watchRSS()
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		if _, err := sweep(cfg.seed, nasWarmTrials); err != nil {
			return nil, err
		}
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (cpu1 - cpu0).Seconds())
	}

	// Each sweep is checked as soon as it ends and only a seeded
	// reservoir of its logged trials is kept, so memory does not grow
	// with the number of sweeps a run fits in.
	p := &nasPass{}
	cal := &calibrator{}
	budgets := search.DeviceBudgets(dev)
	rng := rand.New(rand.NewSource(cfg.seed))
	seen := 0
	alloc0 := heapAllocBytes()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.dur || i < 2; i++ {
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		results, err := sweep(cfg.seed*1000+int64(i), nasTrials)
		if err != nil {
			return nil, err
		}
		p.sweepWall = append(p.sweepWall, time.Since(t0))
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		p.cpu += cpu1 - cpu0
		for _, res := range results {
			if err := checkFrontier(res, budgets); err != nil {
				o.wrong++
				o.notef("frontier check failed: %v", err)
			}
			p.frontier = append(p.frontier, res.Frontier.Size())
			for j := range res.Trials {
				r := res.Trials[j]
				p.trials++
				switch {
				case r.Err != "":
					p.errTrials++
				case r.Spec != nil:
					if r.Feasible {
						p.feasible++
					}
					if seen++; len(p.sample) < nasReeval {
						p.sample = append(p.sample, &r)
					} else if k := rng.Intn(seen); k < nasReeval {
						p.sample[k] = &r
					}
				}
			}
		}
		if err := cal.sample(); err != nil {
			return nil, err
		}
	}
	p.allocBytes = float64(heapAllocBytes() - alloc0)
	// Untimed: start the re-evaluation from a collected heap, so its GC
	// pauses do not depend on how much garbage the last sweep left.
	runtime.GC()
	if err := nasReevaluate(ctx, p, dev, nil); err != nil {
		return nil, err
	}
	peak := mem.peakMB()

	var rates []float64
	for _, w := range p.sweepWall {
		rates = append(rates, float64(nasTrials*len(nasTasks))/w.Seconds())
	}
	p50, p90, err := latencyPair(p.lat)
	if err != nil {
		return nil, err
	}
	within := 0
	for i, l := range p.lat {
		if l <= msOf(nasSLO.Nanoseconds()) && !p.bad[i] {
			within++
		}
	}
	o.wrong += p.wrong
	o.attempted = p.trials + len(p.sample)
	o.failed = p.errTrials + o.wrong
	o.samples = len(p.lat)
	cpuPerOp := msOf(p.cpu.Nanoseconds()) / float64(p.trials)
	o.set("setup_s", median(setupS))
	o.set("cpu_ms_per_op", cpuPerOp*cal.scale())
	o.set("slo_met_frac", float64(within)/float64(len(p.sample)))
	o.set("ok_frac", float64(o.attempted-o.failed)/float64(o.attempted))
	o.set("mem_peak_mb", peak)
	o.notef("%d sweeps of %d trials per task (%v), workers %d, median %.0f trials/s; %d logged trials re-evaluated, all equal: %v",
		len(p.sweepWall), nasTrials, nasTasks, workers, median(rates), len(p.sample), p.wrong == 0)
	o.notef("wall clock: search.Evaluate latency p50 %.3f ms, p90 %.3f ms; sweeps used %.2f s of CPU",
		p50, p90, p.cpu.Seconds())
	o.notef("%s; unscaled cpu_ms_per_op %.3f ms", cal, cpuPerOp)
	if !traced {
		return o, nil
	}

	o.set("search.frontier_size", meanInts(p.frontier))
	o.set("search.feasible_frac", float64(p.feasible)/float64(p.trials))
	o.set("search.alloc_kb_per_trial", p.allocBytes/1024/float64(p.trials))

	// Traced pass: the same sample re-timed through search.Evaluate and
	// its public parts.
	rec := &recorder{}
	tr := &nasPass{sample: p.sample}
	runtime.GC()
	if err := nasReevaluate(ctx, tr, dev, rec); err != nil {
		return nil, err
	}
	o.attempted += len(tr.sample)
	o.failed += tr.wrong
	o.wrong += tr.wrong
	self, err := selfTimes(rec.snapshot())
	if err != nil {
		return nil, err
	}
	n := float64(len(tr.tracedLat))
	evalMs := mean(tr.tracedLat)
	lower := msOf(self["graph.lower"]) / n
	plan := msOf(self["tflm.plan"]) / n
	model := msOf(self["mcu.model"]) / n
	o.set("search.evaluate_ms", evalMs)
	o.set("graph.trial_lower_ms", lower)
	o.set("tflm.plan_ms", plan)
	o.set("mcu.model_ms", model)
	var wall time.Duration
	for _, w := range p.sweepWall {
		wall += w
	}
	workerMs := msOf(wall.Nanoseconds()) * float64(workers) / float64(p.trials)
	o.set("search.harness_share", 1-evalMs/workerMs)
	overhead := median(tr.tracedLat) - median(tr.plainLat)
	o.set("bench.tracing_overhead_ms.nas-sweep", overhead)
	o.notef("accounting per trial: worker time %.3f ms = evaluate %.3f (lower %.3f + plan %.3f + cost model %.3f + proxy and energy %.3f) + harness %.3f ms; untraced evaluations of the same pass %.3f ms; tracing overhead (p50) %.3f ms",
		workerMs, evalMs, lower, plan, model, evalMs-lower-plan-model, workerMs-evalMs, mean(tr.plainLat), overhead)
	return o, rec.write(filepath.Join(cfg.out, fmt.Sprintf("nas-sweep-%d.jsonl", cfg.seed)))
}

// nasReevaluate re-runs search.Evaluate on every sampled trial, timing
// each call and requiring metrics equal to the logged ones. With a
// recorder, every other call is traced: spanned, and followed by a
// re-timing of the public parts of the evaluation.
func nasReevaluate(ctx context.Context, p *nasPass, dev *mcu.Device, rec *recorder) error {
	for i, r := range p.sample {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t0 := time.Now()
		m, err := search.Evaluate(r.Spec, dev)
		t1 := time.Now()
		bad := err != nil || m != r.Metrics
		if bad {
			p.wrong++
		}
		ms := msOf(t1.Sub(t0).Nanoseconds())
		p.lat = append(p.lat, ms)
		p.bad = append(p.bad, bad)
		switch {
		case rec != nil && i%2 == 1:
			p.tracedLat = append(p.tracedLat, ms)
			req := int64(i + 1)
			rec.add(req, 0, "search.evaluate", t0.UnixNano(), t1.UnixNano())
			if err := timeEvalParts(rec, req, r.Spec, dev); err != nil {
				return err
			}
		case rec != nil:
			p.plainLat = append(p.plainLat, ms)
		}
	}
	return nil
}

// timeEvalParts re-times the public calls search.Evaluate is built from:
// lowering, memory planning and the §3 latency model.
func timeEvalParts(rec *recorder, req int64, spec *arch.Spec, dev *mcu.Device) error {
	t0 := time.Now()
	m, err := graph.FromSpec(spec, rand.New(rand.NewSource(nasEvalSeed)), graph.LowerOptions{})
	if err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := tflm.Report(m, nil); err != nil {
		return err
	}
	t2 := time.Now()
	if _, _, err := mcu.ModelLatency(m, dev); err != nil {
		return err
	}
	t3 := time.Now()
	root := rec.add(req, 0, "search.parts", t0.UnixNano(), t3.UnixNano())
	rec.add(req, root, "graph.lower", t0.UnixNano(), t1.UnixNano())
	rec.add(req, root, "tflm.plan", t1.UnixNano(), t2.UnixNano())
	rec.add(req, root, "mcu.model", t2.UnixNano(), t3.UnixNano())
	return nil
}

// checkFrontier requires every frontier point to be feasible under the
// budgets, and no feasible logged trial to dominate it or tie it on
// every objective.
func checkFrontier(res *search.Result, b search.Budgets) error {
	for _, p := range res.Frontier.Points() {
		if v := b.Check(p.Metrics); len(v) > 0 {
			return fmt.Errorf("%s trial %d on the frontier violates %v", res.Task, p.Trial, v)
		}
		for i := range res.Trials {
			r := &res.Trials[i]
			if !r.Feasible || r.Trial == p.Trial || r.Spec == nil {
				continue
			}
			if dominates(r.Metrics, p.Metrics) {
				return fmt.Errorf("%s frontier trial %d is dominated by trial %d", res.Task, p.Trial, r.Trial)
			}
		}
	}
	return nil
}

// dominates is the frontier's order: no worse on accuracy proxy, latency,
// SRAM and flash, and better on at least one.
func dominates(a, b search.Metrics) bool {
	if a.AccuracyProxy < b.AccuracyProxy || a.LatencyS > b.LatencyS ||
		a.TotalSRAMBytes > b.TotalSRAMBytes || a.TotalFlashBytes > b.TotalFlashBytes {
		return false
	}
	return a.AccuracyProxy > b.AccuracyProxy || a.LatencyS < b.LatencyS ||
		a.TotalSRAMBytes < b.TotalSRAMBytes || a.TotalFlashBytes < b.TotalFlashBytes
}

func meanInts(xs []int) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return mean(f)
}
