package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"micronets/internal/graph"
	"micronets/internal/kernels"
	"micronets/internal/obs"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// serveSeed is cmd/serve's default synthetic-weight seed: the benchmark
// lowers its reference models with it, so a served answer can be
// compared with an in-process one.
const serveSeed = 42

// expected is the answer a body must get: per row, the argmax class and
// the dequantized score vector.
type expected struct {
	classes []float64
	scores  []float64
}

// body is one pre-encoded infer request.
type body struct {
	data []byte
	rows int
	want expected
}

// target is one served model with its request bodies.
type target struct {
	model   string
	lowered *graph.Model
	single  []*body
	batch   []*body
}

// buildTarget lowers model in-process exactly as cmd/serve does, draws
// seeded int8 rows, runs them through kernels.Reference, and encodes
// FP32 bodies whose values quantize back to exactly those rows: nSingle
// one-row bodies and nBatch bodies of batchRows rows drawn from them.
func buildTarget(rng *rand.Rand, model string, nSingle, nBatch, batchRows int) (*target, error) {
	m, err := lowerServed(model)
	if err != nil {
		return nil, err
	}
	prep, err := tflm.PrepareWithEngine(m, kernels.Reference)
	if err != nil {
		return nil, err
	}
	ip, err := prep.NewInterpreter(0)
	if err != nil {
		return nil, err
	}
	in := m.Tensors[m.Input]
	t := &target{model: model, lowered: m}
	type row struct {
		vals []float64
		want expected
	}
	rows := make([]row, nSingle)
	for i := range rows {
		q := randomRow(rng, in.Elems())
		copy(ip.Input(), q)
		if err := ip.Invoke(); err != nil {
			return nil, err
		}
		rows[i].vals = dequantize(q, in.Scale, in.ZeroPoint)
		rows[i].want = expectedFor(m, ip.Output())
		t.single = append(t.single, encodeBody([]int{in.H, in.W, in.C}, 1, rows[i].vals, rows[i].want))
	}
	for i := 0; i < nBatch; i++ {
		var vals []float64
		var want expected
		for r := 0; r < batchRows; r++ {
			pick := rows[rng.Intn(len(rows))]
			vals = append(vals, pick.vals...)
			want.classes = append(want.classes, pick.want.classes...)
			want.scores = append(want.scores, pick.want.scores...)
		}
		t.batch = append(t.batch, encodeBody([]int{batchRows, in.H, in.W, in.C}, batchRows, vals, want))
	}
	return t, nil
}

// lowerServed lowers a zoo model exactly as cmd/serve does by default.
func lowerServed(model string) (*graph.Model, error) {
	e, err := zoo.Get(model)
	if err != nil {
		return nil, err
	}
	return graph.FromSpec(e.Spec, rand.New(rand.NewSource(serveSeed)), lowerOpts)
}

// dequantize maps int8 values to FP32 values the server quantizes back
// to exactly q: round((scale·(q−zp))/scale)+zp = q.
func dequantize(q []int8, scale float32, zp int32) []float64 {
	out := make([]float64, len(q))
	for i, v := range q {
		out[i] = float64(scale) * float64(int32(v)-zp)
	}
	return out
}

// expectedFor is the served answer for one quantized output row: the
// dequantized scores and the first argmax, computed as the server does.
func expectedFor(m *graph.Model, out []int8) expected {
	t := m.Tensors[m.Output]
	var e expected
	best := 0
	for i, q := range out {
		e.scores = append(e.scores, float64(t.Scale)*float64(int32(q)-t.ZeroPoint))
		if q > out[best] {
			best = i
		}
	}
	e.classes = []float64{float64(best)}
	return e
}

func encodeBody(shape []int, rows int, vals []float64, want expected) *body {
	type tensor struct {
		Name     string    `json:"name"`
		Shape    []int     `json:"shape"`
		Datatype string    `json:"datatype"`
		Data     []float64 `json:"data"`
	}
	req := struct {
		Inputs []tensor `json:"inputs"`
	}{Inputs: []tensor{{Name: "input", Shape: shape, Datatype: "FP32", Data: vals}}}
	data, _ := json.Marshal(req) // finite floats and ints always marshal
	return &body{data: data, rows: rows, want: want}
}

// checkResponse requires a served answer to equal the reference exactly:
// every score and every class.
func checkResponse(raw []byte, want expected) error {
	var resp struct {
		Outputs []struct {
			Name string    `json:"name"`
			Data []float64 `json:"data"`
		} `json:"outputs"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	got := map[string][]float64{}
	for _, o := range resp.Outputs {
		got[o.Name] = o.Data
	}
	for name, w := range map[string][]float64{"scores": want.scores, "class": want.classes} {
		g := got[name]
		if len(g) != len(w) {
			return fmt.Errorf("%s has %d values, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

// mixEntry is one model's share of a traffic mix.
type mixEntry struct {
	target *target
	weight float64
	// batchFrac is the share of its requests sent as client batches.
	batchFrac float64
}

// request is one scheduled send: due is its offset from the start.
type request struct {
	due    time.Duration
	target *target
	body   *body
}

// schedule lays out n requests over dur. Per-model and per-row-count
// request counts are fixed by the mix, so every seed offers the same
// work; the seed only orders the requests, picks their bodies, and
// jitters the gaps between them (uniform in 0.5–1.5× the mean gap).
func schedule(rng *rand.Rand, n int, dur time.Duration, mix []mixEntry) []request {
	var reqs []request
	left := n
	for i, m := range mix {
		c := int(math.Round(float64(n) * m.weight))
		if i == len(mix)-1 {
			c = left
		}
		left -= c
		nb := int(math.Round(float64(c) * m.batchFrac))
		for j := 0; j < c; j++ {
			pool := m.target.single
			if j < nb {
				pool = m.target.batch
			}
			reqs = append(reqs, request{target: m.target, body: pool[rng.Intn(len(pool))]})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	gaps := make([]float64, len(reqs))
	var sum float64
	for i := range gaps {
		gaps[i] = 0.5 + rng.Float64()
		sum += gaps[i]
	}
	var at float64
	for i := range reqs {
		reqs[i].due = time.Duration(at / sum * float64(dur))
		at += gaps[i]
	}
	return reqs
}

// sent is the record of one request.
type sent struct {
	sendAt, doneAt time.Time
	due            time.Time
	ok, wrong      bool
	traced         bool   // sent with X-Micronets-Trace
	trace          string // the X-Micronets-Trace response header
}

// loadResult is one open-loop pass.
type loadResult struct {
	reqs    []request
	sent    []sent
	lag     []float64     // ms the dispatcher was late per request
	backlog int           // requests due but unanswered when the schedule ended
	window  time.Duration // from the first due time to the last answer
	cpu     time.Duration // CPU time of the processes under test, untraced passes
}

// openLoop sends reqs on their schedule through runtime.NumCPU()
// connections, each carried by its own worker: a request due while every
// connection is busy waits, and that wait counts in its latency, which
// runs from when it was due to when its response arrived. A traced pass
// traces every other request, so traced and untraced requests share the
// host's conditions and their difference is the tracing overhead.
func openLoop(ctx context.Context, url func(*target) string, reqs []request, dur time.Duration, traced bool) *loadResult {
	conns := runtime.NumCPU()
	res := &loadResult{reqs: reqs, sent: make([]sent, len(reqs)), lag: make([]float64, len(reqs))}
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
			defer tr.CloseIdleConnections()
			for i := range queue {
				send(ctx, client, url(reqs[i].target), reqs[i].body, traced && i%2 == 1, &res.sent[i])
				completed.Add(1)
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
dispatch:
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				break dispatch
			case <-time.After(d):
			}
		}
		res.lag[i] = msOf(time.Since(due).Nanoseconds())
		res.sent[i].due = due
		queue <- i
	}
	close(queue)
	end := start.Add(dur)
	select {
	case <-ctx.Done():
	case <-time.After(time.Until(end)):
	}
	res.backlog = len(reqs) - int(completed.Load())
	wg.Wait()
	// Throughput is measured up to the last answer: a system that keeps
	// up ends one latency after the last send, a backlog ends later.
	for _, s := range res.sent {
		if d := s.doneAt.Sub(start); d > res.window {
			res.window = d
		}
	}
	return res
}

// send posts one body, checks the answer, and fills s (whose due time
// the dispatcher has already set).
func send(ctx context.Context, client *http.Client, url string, b *body, traced bool, s *sent) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b.data))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set("X-Micronets-Trace", "1")
		s.traced = true
	}
	s.sendAt = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.doneAt = time.Now()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.doneAt = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	if checkResponse(raw, b.want) != nil {
		s.wrong = true
		return
	}
	s.ok = true
	s.trace = resp.Header.Get("X-Micronets-Trace")
}

// loadStats are the end-to-end figures of one pass.
type loadStats struct {
	n, ok, wrong, rowsOK int
	lat                  []float64 // ms from due to response, answered requests
	client               []float64 // ms from send to response, answered requests
	inSLO                int
	lagP90               float64
	// The answered requests of a traced pass, split by whether they were
	// traced: latency from due, and from send.
	tracedLat, plainLat       []float64
	tracedClient, plainClient []float64
}

func (r *loadResult) stats(slo time.Duration) loadStats {
	st := loadStats{n: len(r.sent)}
	for i, s := range r.sent {
		if s.wrong {
			st.wrong++
		}
		if !s.ok {
			continue
		}
		st.ok++
		st.rowsOK += r.reqs[i].body.rows
		lat := s.doneAt.Sub(s.due)
		st.lat = append(st.lat, msOf(lat.Nanoseconds()))
		client := msOf(s.doneAt.Sub(s.sendAt).Nanoseconds())
		st.client = append(st.client, client)
		if s.traced {
			st.tracedLat = append(st.tracedLat, msOf(lat.Nanoseconds()))
			st.tracedClient = append(st.tracedClient, client)
		} else {
			st.plainLat = append(st.plainLat, msOf(lat.Nanoseconds()))
			st.plainClient = append(st.plainClient, client)
		}
		if lat <= slo {
			st.inSLO++
		}
	}
	st.lagP90 = percentile(r.lag, 0.9)
	return st
}

// stitch turns the traced requests of a pass into spans: each request's
// client span is the root, and the server's X-Micronets-Trace span tree
// hangs under it.
func stitch(rec *recorder, r *loadResult) error {
	for i, s := range r.sent {
		if !s.ok || !s.traced {
			continue
		}
		req := int64(i + 1)
		root := rec.add(req, 0, "bench.client", s.sendAt.UnixNano(), s.doneAt.UnixNano())
		if s.trace == "" {
			continue
		}
		var spans []obs.Span
		if err := json.Unmarshal([]byte(s.trace), &spans); err != nil {
			return fmt.Errorf("X-Micronets-Trace: %w", err)
		}
		// The server lists post-hoc spans (queue, invoke) before the
		// request span they belong to, so walk the tree from the root.
		var add func(parent int, serverParent int)
		add = func(parent, serverParent int) {
			for _, sp := range spans {
				if sp.Parent != serverParent {
					continue
				}
				id := rec.add(req, parent, "serve."+sp.Name, sp.StartUnixNs, sp.StartUnixNs+sp.DurNs)
				add(id, sp.ID)
			}
		}
		add(root, 0)
	}
	return nil
}
