// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the code as it stands, checks that every output
// is correct, and prints its metrics; the last line of standard output is
// a JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench -workload offline-zoo -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it prints the end-to-end metrics named in BENCHMARK.json
// for the workload, measured with tracing off. With -trace 1 it makes the
// separate traced run instead: every workload, serve-kws included, is run
// once untraced and once traced, and the per-layer metrics named in
// BENCHMARK.json are printed, each measured on the workload where its
// layer does the work.
//
// perfbench/run.sh builds this program and the serve and router binaries
// from the checkout and then runs it; see perfbench/README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed int64
	// dur is the length of one measured pass.
	dur time.Duration
	// setups is how many times the workload sets itself up; setup_s is
	// the median.
	setups int
	// bin holds the built serve and router binaries.
	bin string
	// out is where traced runs write their spans.
	out string
}

// outcome is one workload's result.
type outcome struct {
	// metrics maps metric names (end-to-end or per-layer) to values.
	metrics map[string]float64
	// samples is the latency sample count behind the percentiles.
	samples           int
	attempted, failed int
	// wrong counts answers that disagreed with the reference; any wrong
	// answer fails the run.
	wrong int
	// invalid is non-empty when the load generator fell behind or the
	// backlog grew: the run measured the generator, not the system.
	invalid string
	// lines are human-readable report rows.
	lines []string
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func (o *outcome) notef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// workload runs one pass set. traced selects the separate traced run,
// which sets up once and reports per-layer metrics.
type workload func(ctx context.Context, cfg config, traced bool) (*outcome, error)

var workloads = map[string]workload{
	"offline-zoo": runOfflineZoo,
	"serve-kws":   runServeKWS,
	"fleet-vww":   runFleetVWW,
	"nas-sweep":   runNASSweep,
}

// traceOrder is the order of the traced run's workloads. serve-kws and
// nas-sweep run only here: their end-to-end figures swing too much on a
// shared 2-vCPU host to gate on, but serve-kws's X-Micronets-Trace spans
// give the serving layer's split and nas-sweep's re-timed trials give the
// search layers'.
var traceOrder = []string{"offline-zoo", "nas-sweep", "serve-kws", "fleet-vww"}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run, as listed in BENCHMARK.json")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured pass in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	root := flag.String("root", ".", "checkout root holding BENCHMARK.json")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built serve and router binaries")
	flag.Parse()

	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	spec, err := readBenchFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	listed := false
	for _, w := range spec.Workloads {
		listed = listed || w.Name == *name
	}
	if !listed {
		return fmt.Errorf("workload %q is not listed in BENCHMARK.json", *name)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{
		seed: *seed,
		dur:  time.Duration(*seconds) * time.Second,
		bin:  *bin,
		out:  filepath.Join(*root, ".bench_build", "spans"),
	}
	fmt.Printf("provenance %s\n", provenance(*root, *name, *seed))
	steal0, total0, err := hostTicks()
	if err != nil {
		return err
	}

	var outs []*outcome
	var want []metricSpec
	if *trace == 0 {
		want = spec.EndToEnd
		o, err := workloads[*name](ctx, cfg, false)
		if err != nil {
			return fmt.Errorf("%s: %w", *name, err)
		}
		outs = append(outs, o)
		printRow(*name, o, want)
	} else {
		// The traced run covers every layer, so each workload runs for a
		// quarter of the measured time untraced and a quarter traced.
		want = spec.PerLayer
		cfg.dur /= 4
		cfg.setups = 1
		for _, w := range traceOrder {
			o, err := workloads[w](ctx, cfg, true)
			if err != nil {
				return fmt.Errorf("%s (traced run): %w", w, err)
			}
			outs = append(outs, o)
			for _, l := range o.lines {
				fmt.Printf("%s  %s\n", w, l)
			}
		}
	}

	if steal1, total1, err := hostTicks(); err == nil && total1 > total0 {
		fmt.Printf("host: %.1f%% of the machine's CPU time was stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}

	res := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	merged := map[string]float64{}
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.wrong > 0 {
			res.Correct = false
			fmt.Printf("INCORRECT: %d answers disagreed with the reference\n", o.wrong)
		}
		if o.invalid != "" {
			res.Correct = false
			fmt.Printf("INVALID: %s\n", o.invalid)
		}
		for k, v := range o.metrics {
			merged[k] = v
		}
	}
	for _, m := range want {
		v, ok := merged[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// printRow prints the workload's end-to-end row: every metric by name
// and unit, with the latency sample count, then the detail lines.
func printRow(name string, o *outcome, want []metricSpec) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d", name, o.samples)
	for _, m := range want {
		if v, ok := o.metrics[m.Name]; ok {
			fmt.Fprintf(&b, "  %s=%.4g %s", m.Name, v, m.Unit)
		}
	}
	fmt.Println(b.String())
	for _, l := range o.lines {
		fmt.Printf("%s  %s\n", name, l)
	}
}

// provenance records what was measured and where: the source revision,
// the platform and the workload seed.
func provenance(root, name string, seed int64) string {
	p := map[string]any{
		"commit":     revision(root),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   name,
		"seed":       seed,
	}
	js, _ := json.Marshal(p) // a map of strings and numbers always marshals
	return string(js)
}

// revision is the git commit when the checkout is a repository, and
// otherwise a hash of the Go sources and module files, so two runs of
// the same code always record the same revision.
func revision(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	// Unreadable entries are skipped, so the walk itself cannot fail.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return fs.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// statusKB reads one "<field> <n> kB" line of /proc/<pid>/status.
func statusKB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssWatch samples this process's resident set every few milliseconds
// and keeps the largest value. In-process workloads start it once the
// benchmark's own reference computations are freed, so the peak is that
// of the code under test. Sampling allocates nothing, so it does not
// show in the workloads' allocation counts.
type rssWatch struct {
	stop   chan struct{}
	done   chan struct{}
	peakKB int64 // written by the sampler until done is closed
}

var vmRSSKey = []byte("VmRSS:")

func watchRSS() (*rssWatch, error) {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil, err
	}
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	buf := make([]byte, 8192)
	go func() {
		defer close(w.done)
		defer f.Close()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			// procfs regenerates the file on every read from offset 0.
			n, _ := f.ReadAt(buf, 0)
			if kb := fieldKB(buf[:n], vmRSSKey); kb > w.peakKB {
				w.peakKB = kb
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w, nil
}

// fieldKB parses the number after key in a /proc status file, 0 if absent.
func fieldKB(status, key []byte) int64 {
	i := bytes.Index(status, key)
	if i < 0 {
		return 0
	}
	var kb int64
	for _, c := range status[i+len(key):] {
		switch {
		case c == ' ' || c == '\t':
			if kb > 0 {
				return kb
			}
		case c >= '0' && c <= '9':
			kb = kb*10 + int64(c-'0')
		default:
			return kb
		}
	}
	return kb
}

// peakMB stops the sampler and returns the peak resident set in MB.
func (w *rssWatch) peakMB() float64 {
	close(w.stop)
	<-w.done
	return float64(w.peakKB) / 1024
}

// heapAllocBytes is the cumulative Go heap allocation of this process.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
