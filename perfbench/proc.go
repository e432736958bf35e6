package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process under test (cmd/serve or cmd/router). Its output
// is kept only as a short tail, shown when it fails.
type proc struct {
	name   string
	cmd    *exec.Cmd
	tail   *tailBuffer
	exited chan struct{}
	err    error // set before exited is closed
}

// startProc starts bin/name with args.
func startProc(bin, name string, args ...string) (*proc, error) {
	path, err := filepath.Abs(filepath.Join(bin, name))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: exec.Command(path, args...), tail: &tailBuffer{max: 4096}, exited: make(chan struct{})}
	p.cmd.Stdout = p.tail
	p.cmd.Stderr = p.tail
	// Should the benchmark itself be killed, take the process with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// failure describes an early exit with the tail of the process output.
func (p *proc) failure() error {
	return fmt.Errorf("%s exited early (%v): %s", p.name, p.err, p.tail.String())
}

// stopAll sends every process SIGTERM (cmd/serve and cmd/router drain
// gracefully on it) and returns once all have ended, killing any that
// have not after a grace period.
func stopAll(ps []*proc) {
	for _, p := range ps {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited races are harmless
	}
	deadline := time.After(10 * time.Second)
	for _, p := range ps {
		select {
		case <-p.exited:
		case <-deadline:
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
}

// killAll ends discarded set-up instances at once: they served nothing,
// so there is nothing to drain.
func killAll(ps []*proc) {
	for _, p := range ps {
		_ = p.cmd.Process.Kill() // already-exited races are harmless
	}
	for _, p := range ps {
		<-p.exited
	}
}

// peakRSSMB sums the processes' VmHWM.
func peakRSSMB(ps []*proc) (float64, error) {
	var kb float64
	for _, p := range ps {
		v, err := statusKB(p.pid(), "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte // guarded by mu
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// ctl is the control-plane client: health, admin and /metrics calls.
var ctl = &http.Client{Timeout: 30 * time.Second}

// waitFor polls cond every few milliseconds until it holds, the timeout
// passes, or one of the processes exits.
func waitFor(ctx context.Context, timeout time.Duration, what string, cond func() bool, ps ...*proc) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		for _, p := range ps {
			select {
			case <-p.exited:
				return p.failure()
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// getJSON GETs url and decodes a JSON body into v, returning the status.
func getJSON(url string, v any) (int, error) {
	resp, err := ctl.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// routerReady reports whether the router at base is ready with at least
// replicas replicas marked up.
func routerReady(base string, replicas int) bool {
	var r struct {
		Ready      bool `json:"ready"`
		ReplicasUp int  `json:"replicas_up"`
	}
	code, err := getJSON(base+"/v2/health/ready", &r)
	return err == nil && code == http.StatusOK && r.Ready && r.ReplicasUp >= replicas
}

// readyWith reports whether base's /v2/health/ready answers ready with
// at least models READY models.
func readyWith(base string, models int) bool {
	var r struct {
		Ready       bool `json:"ready"`
		ModelsReady int  `json:"models_ready"`
	}
	code, err := getJSON(base+"/v2/health/ready", &r)
	return err == nil && code == http.StatusOK && r.Ready && r.ModelsReady >= models
}

// scrape reads a Prometheus text exposition into series → value.
func scrape(base string) (map[string]float64, error) {
	resp, err := ctl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(raw))
}

func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// family sums every series of one metric family (all label sets).
func family(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta is family(after) − family(before) summed over several scrapes.
func delta(before, after []map[string]float64, name string) float64 {
	var d float64
	for i := range before {
		d += family(after[i], name) - family(before[i], name)
	}
	return d
}

func scrapeAll(bases []string) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, b := range bases {
		m, err := scrape(b)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
