package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"micronets/internal/arch"
	"micronets/internal/search"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if !supported(100, 0.9) || supported(99, 0.9) {
		t.Error("p90 must need exactly 100 samples")
	}
	if !supported(1000, 0.99) || supported(999, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
	xs := make([]float64, 99)
	if _, err := tailPercentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	xs = append(xs, 1)
	if _, err := tailPercentile(xs, 0.9); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, _, err := latencyPair(xs[:50]); err == nil {
		t.Error("latencyPair accepted 50 samples")
	}
}

func TestSelfTimesAttributesEveryInstantOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		// Runs past its parent's end: clipped to [20, 40].
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 50},
		// A second request tree.
		{ID: 5, Name: "root", Start: 200, End: 210},
		{ID: 6, Parent: 5, Name: "a", Start: 200, End: 206},
		{ID: 7, Parent: 5, Name: "b", Start: 204, End: 210},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Tree 1: root 0-10 and 70-100; a 10-20; c 20-40 (deepest); b 40-70.
	// Tree 2: a 200-204; b 204-210 (the later-started sibling).
	want := map[string]int64{"root": 40, "a": 10 + 4, "b": 30 + 6, "c": 20}
	var sum int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, got[name], w)
		}
		sum += got[name]
	}
	if sum != 110 {
		t.Errorf("self times sum to %d, want the roots' total 110", sum)
	}
}

func TestSelfTimesRejectsMalformedSpans(t *testing.T) {
	for name, spans := range map[string][]span{
		"unknown parent": {{ID: 1, Parent: 9, Name: "x", Start: 0, End: 1}},
		"negative":       {{ID: 1, Name: "x", Start: 5, End: 1}},
		"duplicate id":   {{ID: 1, Name: "x", End: 1}, {ID: 1, Name: "y", End: 1}},
		"cycle":          {{ID: 1, Parent: 2, Name: "x", End: 1}, {ID: 2, Parent: 1, Name: "y", End: 1}},
	} {
		if _, err := selfTimes(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEqualRowsRejectsOneFlippedByte(t *testing.T) {
	ref := []int8{-128, 0, 5, 127, -3}
	for i := range ref {
		out := append([]int8(nil), ref...)
		out[i] ^= 1
		if equalRows(out, ref) {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if !equalRows(append([]int8(nil), ref...), ref) {
		t.Error("equal rows rejected")
	}
	if equalRows(ref[:4], ref) {
		t.Error("short row accepted")
	}
}

// servedResponse encodes an answer the way cmd/serve does.
func servedResponse(t *testing.T, e expected) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"model_name": "m",
		"outputs": []map[string]any{
			{"name": "scores", "datatype": "FP32", "shape": []int{1, len(e.scores)}, "data": e.scores},
			{"name": "class", "datatype": "INT32", "shape": []int{1}, "data": e.classes},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCheckResponseRejectsOneFlippedOutputByte(t *testing.T) {
	m, err := lowerServed("DSCNN-S")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int8, m.Tensors[m.Output].Elems())
	for i := range out {
		out[i] = int8(i*17 - 90)
	}
	want := expectedFor(m, out)
	if err := checkResponse(servedResponse(t, want), want); err != nil {
		t.Fatalf("reference answer rejected: %v", err)
	}
	for i := range out {
		flipped := append([]int8(nil), out...)
		flipped[i] ^= 1
		if err := checkResponse(servedResponse(t, expectedFor(m, flipped)), want); err == nil {
			t.Errorf("flipping output byte %d went unnoticed", i)
		}
	}
	if err := checkResponse([]byte(`{"outputs":[]}`), want); err == nil {
		t.Error("empty answer accepted")
	}
}

func TestDequantizedInputsQuantizeBackExactly(t *testing.T) {
	for _, model := range []string{"MicroNet-KWS-S", "MicroNet-VWW-2"} {
		m, err := lowerServed(model)
		if err != nil {
			t.Fatal(err)
		}
		in := m.Tensors[m.Input]
		q := make([]int8, 256)
		for i := range q {
			q[i] = int8(i - 128)
		}
		for i, v := range dequantize(q, in.Scale, in.ZeroPoint) {
			// cmd/serve's FP32 quantization, after a JSON round trip.
			raw, _ := json.Marshal(v)
			var back float64
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			got := int32(math.Round(back/float64(in.Scale))) + in.ZeroPoint
			if got != int32(q[i]) {
				t.Fatalf("%s: %d dequantizes to %v, which quantizes to %d", model, q[i], v, got)
			}
		}
	}
}

func TestScheduleFixesWorkAcrossSeeds(t *testing.T) {
	a := &target{model: "a", single: []*body{{rows: 1}, {rows: 1}}, batch: []*body{{rows: 4}}}
	b := &target{model: "b", single: []*body{{rows: 1}}, batch: []*body{{rows: 4}}}
	mix := []mixEntry{{target: a, weight: 0.75, batchFrac: 0.25}, {target: b, weight: 0.25}}
	dur := 10 * time.Second
	var first map[string]int
	for seed := int64(1); seed <= 5; seed++ {
		reqs := schedule(rand.New(rand.NewSource(seed)), 200, dur, mix)
		if len(reqs) != 200 {
			t.Fatalf("seed %d: %d requests, want 200", seed, len(reqs))
		}
		counts := map[string]int{}
		var last time.Duration
		for i, r := range reqs {
			counts[r.target.model]++
			counts[r.target.model+"/rows"] += r.body.rows
			if r.due < last || r.due >= dur || (i == 0 && r.due != 0) {
				t.Fatalf("seed %d: request %d due at %v after %v", seed, i, r.due, last)
			}
			last = r.due
		}
		if first == nil {
			first = counts
			if counts["a"] != 150 || counts["b"] != 50 || counts["a/rows"] != 150+3*38 {
				t.Fatalf("counts %v", counts)
			}
			continue
		}
		for k, v := range first {
			if counts[k] != v {
				t.Errorf("seed %d: %s = %d, seed 1 had %d", seed, k, counts[k], v)
			}
		}
	}
}

func TestCheckFrontierRejectsDominatedPoint(t *testing.T) {
	mk := func(trial int, acc, lat float64) search.TrialRecord {
		return search.TrialRecord{Trial: trial, Feasible: true, Spec: &arch.Spec{Name: "x"},
			Metrics: search.Metrics{AccuracyProxy: acc, LatencyS: lat, TotalSRAMBytes: 10, TotalFlashBytes: 10}}
	}
	good := mk(0, 90, 0.1)
	worse := mk(1, 80, 0.2)
	f := &search.Frontier{}
	f.Add(search.Point{Trial: 1, Metrics: worse.Metrics})
	res := &search.Result{Task: "kws", Frontier: f, Trials: []search.TrialRecord{good, worse}}
	budgets := search.Budgets{SRAMBytes: 100, FlashBytes: 100}
	if err := checkFrontier(res, budgets); err == nil {
		t.Error("a frontier point dominated by a feasible trial was accepted")
	}
	f2 := &search.Frontier{}
	f2.Add(search.Point{Trial: 0, Metrics: good.Metrics})
	res.Frontier = f2
	if err := checkFrontier(res, budgets); err != nil {
		t.Errorf("the true frontier was rejected: %v", err)
	}
	if err := checkFrontier(res, search.Budgets{SRAMBytes: 5, FlashBytes: 100}); err == nil {
		t.Error("an infeasible frontier point was accepted")
	}
}

func TestParseMetricsSumsFamilies(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\n" +
		"micronets_serve_batches_total{model=\"a\"} 3\n" +
		"micronets_serve_batches_total{model=\"b\"} 4\n" +
		"micronets_serve_batches_total_other 100\n" +
		"micronets_mesh_request_retries_total 2\n"
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := family(m, "micronets_serve_batches_total"); got != 7 {
		t.Errorf("family sum = %v, want 7", got)
	}
	if got := family(m, "micronets_mesh_request_retries_total"); got != 2 {
		t.Errorf("unlabelled series = %v, want 2", got)
	}
	if _, err := parseMetrics("no_value_here\n"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestFieldKBParsesProcStatus(t *testing.T) {
	status := []byte("Name:\tx\nVmHWM:\t  20480 kB\nVmRSS:\t   1234 kB\nThreads:\t5\n")
	if got := fieldKB(status, vmRSSKey); got != 1234 {
		t.Errorf("VmRSS = %d, want 1234", got)
	}
	if got := fieldKB(status, []byte("VmSwap:")); got != 0 {
		t.Errorf("absent field = %d, want 0", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { fieldKB(status, vmRSSKey) }); allocs != 0 {
		t.Errorf("fieldKB allocates %v times per call", allocs)
	}
}

func TestCPUTimesAreReadInNanoseconds(t *testing.T) {
	if got := parseSchedstat([]byte("123456789 2000 17\n")); got != 123456789 {
		t.Errorf("schedstat run time = %d, want 123456789", got)
	}
	if got := parseSchedstat([]byte("")); got != 0 {
		t.Errorf("empty schedstat = %d, want 0", got)
	}
	// This process's own threads, read the way the serving processes are,
	// must account for the CPU time getrusage reports for it.
	x := 1
	for i := 0; i < 20_000_000; i++ {
		x = x*31 + i
	}
	self, err := selfCPU()
	if err != nil {
		t.Fatal(err)
	}
	threads, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if threads <= 0 || threads > self+50*time.Millisecond || threads < self/2 {
		t.Errorf("schedstat sum %v, getrusage %v (x=%d)", threads, self, x)
	}
}
