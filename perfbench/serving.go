package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"micronets/internal/graph"
	"micronets/internal/mesh"
	"micronets/internal/tflm"
)

const (
	// clientBatchRows is the row count of a client batch request.
	clientBatchRows = 4
	// maxLagMs is the p90 dispatcher lateness above which a run measured
	// the generator rather than the system.
	maxLagMs = 20.0
	// routerVnodes is cmd/router's default ring size; the benchmark
	// rebuilds the same ring to know the placement order.
	routerVnodes = 128
	// serveMaxBatch and servePool are cmd/serve's defaults, used to size
	// the fleet budgets.
	serveMaxBatch = 8
	servePool     = 2
)

// serve-kws: small-body models behind one cmd/serve. The shares are
// chosen so that, with single-row latencies ordered DSCNN-S < KWS-S <
// KWS-M < AD-S and 4-row batches after their single rows, the pooled
// median falls inside KWS-S's single-row band and the p90 inside
// AD-S's, not on the boundary between two request classes.
var kwsMix = []struct {
	model     string
	weight    float64
	batchFrac float64
}{
	{"DSCNN-S", 0.25, 0.2},
	{"MicroNet-KWS-S", 0.50, 0.1},
	{"MicroNet-KWS-M", 0.10, 0},
	{"MicroNet-AD-S", 0.15, 0},
}

const (
	kwsRate = 35.0 // requests/s offered
	kwsSLO  = 150 * time.Millisecond
)

// fleet-vww: VWW-2 plus a share of VWW-1 through cmd/router. cmd/serve
// cannot boot empty, so each replica boots with fleetResident, which
// takes no traffic; the VWW models are loaded through the router.
const (
	fleetResident  = "DSCNN-S"
	fleetRate      = 5.0 // requests/s offered
	fleetVWW1Share = 0.2
	fleetSLO       = 300 * time.Millisecond
)

// calInterval is how often a serving pass samples the calibration.
const calInterval = 250 * time.Millisecond

// maxBacklog is the largest number of requests still outstanding when
// the schedule ends for which the system is taken to have kept up.
func maxBacklog(n int) int { return max(16, n/20) }

// passLength is how many requests a pass of dur offers at rate, and for
// how long: an end-to-end pass is stretched to minSamples requests so its
// p90 is supported (the traced run reports no p90).
func passLength(rate float64, dur time.Duration, traced bool) (int, time.Duration) {
	n := int(rate*dur.Seconds() + 0.5)
	if !traced {
		n = max(n, minSamples)
	}
	return n, time.Duration(float64(n) / rate * float64(time.Second))
}

// servingSetup is one set-up of the processes under test; it returns
// them (to stop and to read memory from) and the base URL to load.
type servingSetup func(ctx context.Context) ([]*proc, string, error)

// setUp runs setup n times, keeping the last instance, and returns the
// set-up times: the CPU time each instance's processes used up to ready.
func setUp(ctx context.Context, n int, setup servingSetup) ([]*proc, string, []float64, error) {
	var setupS []float64
	var procs []*proc
	var base string
	for i := 0; i < n; i++ {
		killAll(procs)
		ps, b, err := setup(ctx)
		if err != nil {
			killAll(ps)
			return nil, "", nil, err
		}
		cpu, err := cpuOf(ps)
		if err != nil {
			killAll(ps)
			return nil, "", nil, err
		}
		setupS = append(setupS, cpu.Seconds())
		procs, base = ps, b
	}
	return procs, base, setupS, nil
}

// measuredLoop is an untraced openLoop that also records the CPU time
// the processes under test used during it, sampling the calibration in
// this process meanwhile.
func measuredLoop(ctx context.Context, url func(*target) string, reqs []request, dur time.Duration, procs []*proc, cal *calibrator) (*loadResult, error) {
	cpu0, err := cpuOf(procs)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	sampled := cal.during(calInterval, stop)
	res := openLoop(ctx, url, reqs, dur, false)
	close(stop)
	<-sampled
	cpu1, err := cpuOf(procs)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	return res, nil
}

// servingPass is the figures shared by both serving workloads. Untraced,
// it reports setup_s from the set-up times, and cpu_ms_per_op from res
// scaled by cal.
func servingPass(o *outcome, res *loadResult, slo time.Duration, procs []*proc, setupS []float64, cal *calibrator, traced bool) (loadStats, error) {
	st := res.stats(slo)
	o.attempted += st.n
	o.failed += st.n - st.ok
	o.wrong += st.wrong
	if st.lagP90 > maxLagMs {
		o.invalid = fmt.Sprintf("load generator fell behind: p90 lateness %.2f ms > %.0f ms", st.lagP90, maxLagMs)
	}
	if res.backlog > maxBacklog(st.n) {
		o.invalid = fmt.Sprintf("backlog grew: %d of %d requests outstanding when the schedule ended", res.backlog, st.n)
	}
	if traced {
		return st, nil
	}
	p90, err := tailPercentile(st.lat, 0.9)
	if err != nil {
		return st, err
	}
	mem, err := peakRSSMB(procs)
	if err != nil {
		return st, err
	}
	o.samples = len(st.lat)
	cpuPerOp := msOf(res.cpu.Nanoseconds()) / float64(st.rowsOK)
	o.set("setup_s", median(setupS))
	o.set("cpu_ms_per_op", cpuPerOp*cal.scale())
	o.set("slo_met_frac", float64(st.inSLO)/float64(st.n))
	o.set("ok_frac", float64(st.ok)/float64(st.n))
	o.set("mem_peak_mb", mem)
	o.notef("sent %d requests (%d rows answered correctly, %d wrong, %d failed) in %.2fs; generator p90 lateness %.3f ms, backlog %d",
		st.n, st.rowsOK, st.wrong, st.n-st.ok, res.window.Seconds(), st.lagP90, res.backlog)
	o.notef("wall clock: %.2f rows/s answered, latency from due p50 %.3f ms, p90 %.3f ms; processes under test used %.2f s of CPU",
		float64(st.rowsOK)/res.window.Seconds(), median(st.lat), p90, res.cpu.Seconds())
	o.notef("%s; unscaled cpu_ms_per_op %.3f ms", cal, cpuPerOp)
	return st, nil
}

func runServeKWS(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	rng := rand.New(rand.NewSource(cfg.seed))
	var mix []mixEntry
	var models []string
	for _, m := range kwsMix {
		t, err := buildTarget(rng, m.model, 8, 4, clientBatchRows)
		if err != nil {
			return nil, err
		}
		mix = append(mix, mixEntry{target: t, weight: m.weight, batchFrac: m.batchFrac})
		models = append(models, m.model)
	}
	setups := cfg.setups
	if setups == 0 {
		setups = 15
	}
	procs, base, setupS, err := setUp(ctx, setups, func(ctx context.Context) ([]*proc, string, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, "", err
		}
		p, err := startProc(cfg.bin, "serve", "-addr", addr, "-models", strings.Join(models, ","))
		if err != nil {
			return nil, "", err
		}
		base := "http://" + addr
		err = waitFor(ctx, 60*time.Second, "serve ready", func() bool { return readyWith(base, len(models)) }, p)
		return []*proc{p}, base, err
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(procs)
	cal := &calibrator{}
	url := func(t *target) string { return base + "/v2/models/" + t.model + "/infer" }
	n, dur := passLength(kwsRate, cfg.dur, traced)

	before, err := scrapeAll([]string{base})
	if err != nil {
		return nil, err
	}
	plain, err := measuredLoop(ctx, url, schedule(rng, n, dur, mix), dur, procs, cal)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll([]string{base})
	if err != nil {
		return nil, err
	}
	st, err := servingPass(o, plain, kwsSLO, procs, setupS, cal, traced)
	if err != nil {
		return nil, err
	}
	o.notef("offered %.1f requests/s over %v, some as %d-row client batches", kwsRate, models, clientBatchRows)
	if !traced {
		return o, nil
	}

	serveLayers(o, "serve-kws", before, after)
	o.set("bench.gen_lag_ms.serve-kws", st.lagP90)
	o.set("bench.backlog.serve-kws", float64(plain.backlog))

	rec := &recorder{}
	tr := openLoop(ctx, url, schedule(rng, n, dur, mix), dur, true)
	tst, err := servingPass(o, tr, kwsSLO, procs, nil, nil, true)
	if err != nil {
		return nil, err
	}
	if err := stitch(rec, tr); err != nil {
		return nil, err
	}
	self, err := selfTimes(rec.snapshot())
	if err != nil {
		return nil, err
	}
	per := func(name string) float64 { return msOf(self[name]) / float64(len(tst.tracedLat)) }
	o.set("serve.handler_self_ms.serve-kws", per("serve.request"))
	o.set("serve.transport_ms", per("bench.client"))
	overhead := median(tst.tracedLat) - median(tst.plainLat)
	o.set("bench.tracing_overhead_ms.serve-kws", overhead)
	o.notef("accounting per traced request: client %.3f ms = transport %.3f + handler self %.3f + queue %.3f + invoke %.3f ms; untraced requests of the same pass %.3f ms; tracing overhead (p50) %.3f ms",
		mean(tst.tracedClient), per("bench.client"), per("serve.request"), per("serve.queue"), per("serve.invoke"), mean(tst.plainClient), overhead)
	return o, rec.write(filepath.Join(cfg.out, fmt.Sprintf("serve-kws-%d.jsonl", cfg.seed)))
}

// serveLayers records the serve layer figures from /metrics deltas of
// the replicas over the untraced pass.
func serveLayers(o *outcome, w string, before, after []map[string]float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	o.set("serve.queue_wait_ms."+w, 1000*d("micronets_serve_queue_wait_seconds_sum")/d("micronets_serve_queue_wait_seconds_count"))
	o.set("serve.invoke_ms."+w, 1000*d("micronets_serve_invoke_seconds_sum")/d("micronets_serve_invoke_seconds_count"))
	o.set("serve.batch_size_mean."+w, d("micronets_serve_batch_size_sum")/d("micronets_serve_batches_total"))
}

func runFleetVWW(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	o := &outcome{}
	rng := rand.New(rand.NewSource(cfg.seed))
	vww2, err := buildTarget(rng, "MicroNet-VWW-2", 8, 0, 0)
	if err != nil {
		return nil, err
	}
	vww1, err := buildTarget(rng, "MicroNet-VWW-1", 4, 0, 0)
	if err != nil {
		return nil, err
	}
	mix := []mixEntry{{target: vww2, weight: 1 - fleetVWW1Share}, {target: vww1, weight: fleetVWW1Share}}
	small, big, err := fleetBudgets(vww2.lowered, vww1.lowered)
	if err != nil {
		return nil, err
	}

	setups := cfg.setups
	if setups == 0 {
		setups = 15
	}
	var replicas []string
	procs, base, setupS, err := setUp(ctx, setups, func(ctx context.Context) ([]*proc, string, error) {
		ps, b, reps, err := startFleet(ctx, cfg.bin, small, big)
		replicas = reps
		return ps, b, err
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(procs)
	cal := &calibrator{}
	o.notef("placement: %s on %s (budget %d B), %s on %s (budget %d B), at least one 409 spill during set-up",
		vww1.model, replicas[1], big, vww2.model, replicas[0], small)
	url := func(t *target) string { return base + "/v2/models/" + t.model + "/infer" }
	n, dur := passLength(fleetRate, cfg.dur, traced)
	bases := append([]string{base}, replicas...)

	before, err := scrapeAll(bases)
	if err != nil {
		return nil, err
	}
	plain, err := measuredLoop(ctx, url, schedule(rng, n, dur, mix), dur, procs, cal)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(bases)
	if err != nil {
		return nil, err
	}
	st, err := servingPass(o, plain, fleetSLO, procs, setupS, cal, traced)
	if err != nil {
		return nil, err
	}
	o.notef("offered %.1f requests/s through cmd/router, %.0f%% %s", fleetRate, fleetVWW1Share*100, vww1.model)
	if !traced {
		return o, nil
	}

	serveLayers(o, "fleet-vww", before[1:], after[1:])
	d := func(name string) float64 { return delta(before, after, name) }
	routerMs := 1000 * d("micronets_mesh_request_latency_seconds_sum") / d("micronets_mesh_request_latency_seconds_count")
	replicaMs := 1000 * delta(before[1:], after[1:], "micronets_serve_request_latency_seconds_sum") /
		delta(before[1:], after[1:], "micronets_serve_request_latency_seconds_count")
	queueMs := o.metrics["serve.queue_wait_ms.fleet-vww"]
	clientMs := mean(st.client)
	o.set("mesh.hop_ms", clientMs-routerMs)
	o.set("serve.handler_self_ms.fleet-vww", routerMs-replicaMs)
	o.set("mesh.retries", d("micronets_mesh_request_retries_total"))
	var top, total float64
	for _, r := range replicas {
		v := family(after[0], `micronets_mesh_replica_requests_total{replica="`+r+`"}`) -
			family(before[0], `micronets_mesh_replica_requests_total{replica="`+r+`"}`)
		top = max(top, v)
		total += v
	}
	o.set("mesh.replica_share", top/total)
	o.set("bench.gen_lag_ms.fleet-vww", st.lagP90)
	o.set("bench.backlog.fleet-vww", float64(plain.backlog))

	// cmd/router does not forward X-Micronets-Trace, so the traced pass
	// records client spans only and the split above comes from /metrics.
	rec := &recorder{}
	tr := openLoop(ctx, url, schedule(rng, n, dur, mix), dur, true)
	tst, err := servingPass(o, tr, fleetSLO, procs, nil, nil, true)
	if err != nil {
		return nil, err
	}
	if err := stitch(rec, tr); err != nil {
		return nil, err
	}
	overhead := median(tst.tracedLat) - median(tst.plainLat)
	o.set("bench.tracing_overhead_ms.fleet-vww", overhead)
	o.notef("accounting per request (untraced pass, /metrics means): client %.3f ms = router hop %.3f + replica handler and proxy %.3f + queue %.3f + invoke %.3f ms; tracing overhead (p50, traced pass) %.3f ms",
		clientMs, clientMs-routerMs, routerMs-replicaMs, queueMs, replicaMs-queueMs, overhead)
	return o, rec.write(filepath.Join(cfg.out, fmt.Sprintf("fleet-vww-%d.jsonl", cfg.seed)))
}

// fleetBudgets sizes the two replicas' RAM budgets so placement is the
// same whatever ports the replicas get: besides the resident model, the
// small replica fits all of VWW-2 (pool and batch at cmd/serve's
// defaults) but not VWW-1, and the big one fits all of VWW-1 and nothing
// more. The replica the ring prefers for VWW-1 gets the small budget, so
// VWW-1's load always spills once.
func fleetBudgets(vww2, vww1 *graph.Model) (small, big int, err error) {
	cost := func(m *graph.Model, batch, pool int) (int, error) {
		prep, err := tflm.Prepare(m)
		if err != nil {
			return 0, err
		}
		plan, err := tflm.PlanMemoryBatch(m, batch)
		if err != nil {
			return 0, err
		}
		return prep.WeightBytes() + pool*plan.ArenaBytes, nil
	}
	res, err := lowerServed(fleetResident)
	if err != nil {
		return 0, 0, err
	}
	resident, err := cost(res, serveMaxBatch, servePool)
	if err != nil {
		return 0, 0, err
	}
	if small, err = cost(vww2, serveMaxBatch, servePool); err != nil {
		return 0, 0, err
	}
	if big, err = cost(vww1, serveMaxBatch, servePool); err != nil {
		return 0, 0, err
	}
	need1, err := cost(vww1, 1, 1)
	if err != nil {
		return 0, 0, err
	}
	if small >= need1 {
		return 0, 0, fmt.Errorf("fleet budgets do not separate the models: %s fits in %d bytes", vww1.Name, small)
	}
	return resident + small, resident + big, nil
}

// startFleet starts two budgeted replicas and the router in front of
// them, then loads both models through the router's admin endpoint. It
// returns the processes, the router URL and the replica URLs ordered
// small-budget first.
func startFleet(ctx context.Context, bin string, small, big int) ([]*proc, string, []string, error) {
	var addrs []string
	for i := 0; i < 3; i++ {
		a, err := freeAddr()
		if err != nil {
			return nil, "", nil, err
		}
		addrs = append(addrs, a)
	}
	urls := []string{"http://" + addrs[0], "http://" + addrs[1]}
	order := mesh.NewRing(routerVnodes, urls...).Order("MicroNet-VWW-1")
	budget := map[string]int{order[0]: small, order[1]: big}
	var procs []*proc
	for i, u := range urls {
		p, err := startProc(bin, "serve", "-addr", addrs[i], "-models", fleetResident, "-ram-budget", strconv.Itoa(budget[u]))
		if err != nil {
			return procs, "", nil, err
		}
		procs = append(procs, p)
	}
	for _, u := range urls {
		if err := waitFor(ctx, 60*time.Second, "replica ready", func() bool { return readyWith(u, 1) }, procs...); err != nil {
			return procs, "", nil, err
		}
	}
	r, err := startProc(bin, "router", "-addr", addrs[2], "-replicas", strings.Join(urls, ","))
	if err != nil {
		return procs, "", nil, err
	}
	procs = append(procs, r)
	base := "http://" + addrs[2]
	// The router is ready once one replica is up; loading before it has
	// marked both up (its first probe of one can time out on a stalled
	// host) would find no replica that fits VWW-1.
	if err := waitFor(ctx, 60*time.Second, "router ready", func() bool { return routerReady(base, len(urls)) }, procs...); err != nil {
		return procs, "", nil, err
	}
	for _, m := range []string{"MicroNet-VWW-1", "MicroNet-VWW-2"} {
		resp, err := ctl.Post(base+"/v2/repository/models/"+m+"/load", "application/json", strings.NewReader("{}"))
		if err != nil {
			return procs, "", nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return procs, "", nil, fmt.Errorf("load %s through the router: status %d", m, resp.StatusCode)
		}
	}
	holds := func(u, model string) bool {
		var r struct {
			Models []struct {
				Name string `json:"name"`
			} `json:"models"`
		}
		if _, err := getJSON(u+"/v2/models", &r); err != nil {
			return false
		}
		names := map[string]bool{}
		for _, m := range r.Models {
			names[m.Name] = true
		}
		return len(names) == 2 && names[model] && names[fleetResident]
	}
	if !holds(order[0], "MicroNet-VWW-2") || !holds(order[1], "MicroNet-VWW-1") {
		return procs, "", nil, fmt.Errorf("unexpected placement: want MicroNet-VWW-2 on %s and MicroNet-VWW-1 on %s, each beside the resident model only", order[0], order[1])
	}
	return procs, base, order, nil
}
