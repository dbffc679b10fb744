// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public packages, checks that the outputs are
// correct, and prints one JSON result line last on standard output:
//
//	go run . --workload train-grid --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off, and first
// sets the workload up in setupReps-1 fresh processes of this program so
// that setup_s is the median of setupReps set-ups; --trace 1
// runs the same timed loop untraced and then traced, records spans around
// every call the benchmark makes into a layer, and reports per-layer
// metrics, the spans' coverage and the tracing overhead. Workloads,
// metrics and their expected interactions are described in metrics.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"agnn/internal/benchutil"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness comparison made after timing.
type check struct {
	Name   string  `json:"name"`
	OK     bool    `json:"ok"`
	Err    float64 `json:"max_rel_err"`
	Tol    float64 `json:"tol"`
	Detail string  `json:"detail,omitempty"`
}

// env is what a workload receives: its seed, run length and tracing mode,
// and the report it fills. With setupOnly the workload returns once it is
// set up, having reported setup_s alone.
type env struct {
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	outDir    string

	e2e       map[string]metric
	layer     map[string]metric
	samples   map[string]int
	detail    map[string]any
	checks    []check
	attempted int
	failed    int
	spans     *tracer
}

func newEnv(seed int64, seconds float64, trace bool, outDir string) *env {
	return &env{seed: seed, seconds: seconds, trace: trace, outDir: outDir,
		e2e: map[string]metric{}, layer: map[string]metric{},
		samples: map[string]int{}, detail: map[string]any{}}
}

func (e *env) setE2E(name string, v float64)   { e.e2e[name] = metric{v, unitOf(name)} }
func (e *env) setLayer(name string, v float64) { e.layer[name] = metric{v, unitOf(name)} }

// addCheck records a correctness comparison against its tolerance.
func (e *env) addCheck(name string, relErr, tol float64, detail string) {
	ok := relErr <= tol && !math.IsNaN(relErr)
	e.checks = append(e.checks, check{Name: name, OK: ok, Err: relErr, Tol: tol, Detail: detail})
	e.attempted++
	if !ok {
		e.failed++
	}
}

// setClosedLoop reports the end-to-end metrics of a closed-loop workload
// from its timed steps (epochs or forward passes): the median and tail step
// time, steps per second of timed wall time, and the edge throughput.
func (e *env) setClosedLoop(step string, setupS, rssMB float64, steps []float64, wallS float64, nnz int) {
	e.setE2E("setup_s", setupS)
	e.setE2E("step_s_p50", median(steps))
	e.setE2E("step_s_tail", tail(steps))
	e.setE2E("ops_per_s", float64(len(steps))/wallS)
	e.setE2E("peak_rss_mb", rssMB)
	e.samples[step+"s"] = len(steps)
	e.detail[step+"_s"] = steps
	e.detail[step+"_s_p50"] = median(steps)
	e.detail["edges_per_s"] = float64(nnz) * float64(len(steps)) / wallS
}

// setupReps is how many set-ups, each in a fresh process, setup_s is the
// median of.
const setupReps = 3

var workloads = map[string]func(*env) error{
	"train-grid": func(e *env) error { return runTrainGrid(e, gridShape) },
	"infer-f32":  func(e *env) error { return runInferF32(e, inferShape) },
	"serve-ego":  func(e *env) error { return runServeEgo(e, serveShape) },
	"train-tcp":  func(e *env) error { return runTrainTCP(e, tcpShape) },
}

func main() {
	name := flag.String("workload", "", "workload: train-grid, infer-f32, serve-ego or train-tcp")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed measurement")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for span dumps and checkpoints")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print its setup_s and exit")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var setups []float64
	if *traceFlag == 0 && !*setupOnly {
		for i := 1; i < setupReps; i++ {
			s, err := setupInChild(*name, *seed, *outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: set-up %d: %v\n", *name, i, err)
				os.Exit(1)
			}
			setups = append(setups, s)
		}
	}
	e := newEnv(*seed, *seconds, *traceFlag == 1, *outDir)
	e.setupOnly = *setupOnly
	if err := run(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *setupOnly {
		fmt.Printf("{\"setup_s\": %v}\n", e.e2e["setup_s"].Value)
		return
	}
	if s, ok := e.e2e["setup_s"]; ok && !e.trace {
		setups = append(setups, s.Value)
		e.setE2E("setup_s", median(setups))
		e.detail["setup_s"] = setups
	}
	if e.spans != nil {
		sum := e.spans.summarize()
		for _, layer := range traceLayers {
			e.setLayer("trace.self_s."+layer, sum.SelfSec[layer]/float64(max(sum.Roots, 1)))
		}
		e.setLayer("trace.coverage", sum.Coverage)
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := e.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		e.detail["spans_file"] = path
	}
	e.detail["fail_frac"] = float64(e.failed) / float64(max(e.attempted, 1))

	// Provenance and the details every metric rests on, one line before the
	// result line.
	prov := map[string]any{
		"build":      benchutil.CaptureProvenance(),
		"nproc":      runtime.NumCPU(),
		"source_sha": sourceDigest(),
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      e.trace,
		"samples":    e.samples,
	}
	all := map[string]any{"provenance": prov, "checks": e.checks, "detail": e.detail,
		"end_to_end": e.e2e, "per_layer": e.layer}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding details:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))

	out, defs := e.e2e, endToEnd
	if e.trace {
		out, defs = e.layer, perLayer
	}
	for _, d := range defs {
		if _, ok := out[d.Name]; !ok {
			if !e.trace {
				fmt.Fprintf(os.Stderr, "perfbench: %s reported no %s\n", *name, d.Name)
				os.Exit(1)
			}
			out[d.Name] = metric{0, d.Unit} // the workload does not exercise this layer
		}
	}
	for k, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			os.Exit(1)
		}
	}
	correct := e.failed == 0
	res, _ := json.Marshal(map[string]any{"correct": correct, "attempted": e.attempted,
		"failed": e.failed, "metrics": out})
	fmt.Println(string(res))
	if !correct {
		os.Exit(1)
	}
}

// setupInChild sets the workload up in a fresh process of this program, so
// that nothing the set-up leaves behind stays in this one, and returns the
// set-up time it reports.
func setupInChild(name string, seed int64, outDir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--out", outDir, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var res struct {
		SetupS *float64 `json:"setup_s"`
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.SetupS == nil {
		return 0, fmt.Errorf("no setup_s in %q", lines[len(lines)-1])
	}
	return *res.SetupS, nil
}

// sourceDigest fingerprints the program under test (every .go file and
// go.mod of the module above this one), so a result carries the identity
// of the code even in a checkout without git metadata.
func sourceDigest() string {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("perfbench"); err == nil {
			root = "."
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
