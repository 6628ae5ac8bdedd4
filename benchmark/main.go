package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed the committed baseline and the pinned
// digests were produced with.
const defaultSeed = 2016

// artifact is the suite's machine-readable output (results/BENCH_<pr>.json),
// the thing -compare diffs.
type artifact struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Started    string  `json:"started"`
	// Workloads holds, per workload name, the tracing-off pass under
	// "end_to_end" and the traced pass under "per_layer".
	Workloads map[string]map[string]*passResult `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all seven)")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: pools, write rows and op streams derive from it")
		seconds  = flag.Float64("seconds", 8, "measuring time of one pass, in seconds")
		trace    = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		smoke    = flag.Bool("smoke", false, "a fiftieth of the measuring time, one set-up, end-to-end pass only unless -trace 1: a quick check that everything still runs and answers correctly")
		jsonOut  = flag.String("json", "", "write the suite artifact to this path")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for traces and scratch data")
		compare  = flag.Bool("compare", false, "compare two suite artifacts: -compare old.json new.json")
		openLoop = flag.Bool("openloop", true, "http-hot: follow the closed-loop segments with the open-loop rate steps")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace < -1 || *trace > 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := config{seed: *seed, seconds: *seconds, outDir: *outDir, smoke: *smoke, openLoop: *openLoop}
	if *smoke {
		cfg.seconds /= 50
		if *trace < 0 {
			*trace = 0
		}
	}
	specs := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		specs = []workloadSpec{w}
	}
	art := &artifact{
		Commit: commit(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Started: time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]map[string]*passResult{},
	}
	fmt.Printf("benchmark: commit %s, %s, GOMAXPROCS %d of %d CPUs, seed %d, %gs per pass\n",
		art.Commit, art.Go, art.GOMAXPROCS, art.NumCPU, cfg.seed, cfg.seconds)
	ok := true
	var last *passResult
	for _, spec := range specs {
		art.Workloads[spec.name] = map[string]*passResult{}
		for pass, run := range []func(workloadSpec, config) (*passResult, error){runEndToEnd, runTraced} {
			if *trace >= 0 && *trace != pass {
				continue
			}
			res, err := run(spec, cfg)
			if err != nil {
				fatalf("%s: %v", spec.name, err)
			}
			checkPins(res, cfg)
			printPass(spec, pass, res)
			art.Workloads[spec.name][[]string{"end_to_end", "per_layer"}[pass]] = res
			ok = ok && res.Correct
			last = res
		}
	}
	if err := os.RemoveAll(filepath.Join(cfg.outDir, "tmp")); err != nil {
		fatalf("%v", err)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(art, "", " ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if len(specs) == 1 && *trace >= 0 {
		// The result line a driver reads: the last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]resultValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, resultValues(last.Metrics)})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// resultValue is a metric as the result line carries it.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultValues(m map[string]metricValue) map[string]resultValue {
	out := make(map[string]resultValue, len(m))
	for k, v := range m {
		out[k] = resultValue{v.Value, v.Unit}
	}
	return out
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}

// commit is the revision the checkout is at: what the build recorded, or
// (go run records nothing) what .git says HEAD is; "unknown" in a checkout
// that is not a repository. Uncommitted changes do not show.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		buf, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown" // a packed ref: not worth a parser
		}
		rev = strings.TrimSpace(string(buf))
	}
	if len(rev) < 12 {
		return "unknown"
	}
	return rev[:12]
}

// checkPins fails a default-seed pass whose inputs differ from the ones
// the committed baseline was measured on.
func checkPins(res *passResult, cfg config) {
	pin, ok := pins[res.Workload]
	if !ok || cfg.seed != defaultSeed {
		return
	}
	if res.StreamDigest != pin.stream || res.OracleDigest != pin.oracle {
		res.fail("inputs changed: stream digest %s (pinned %s), oracle digest %s (pinned %s); "+
			"numbers are not comparable with the baseline — if the change is intended, update pins.go and re-measure",
			res.StreamDigest, pin.stream, res.OracleDigest, pin.oracle)
	}
}

// printPass prints one pass: every metric by name with its unit, in
// brackets the same statistic with each segment left out in turn, and what
// was checked.
func printPass(spec workloadSpec, pass int, res *passResult) {
	title := "end to end (tracing off)"
	if pass == 1 {
		title = "per layer (traced)"
	}
	fmt.Printf("\n== %s — %s\n   %s\n", spec.name, title, spec.why)
	fmt.Printf("   service %s; stream digest %s, oracle digest %s\n", spec.kind, res.StreamDigest, res.OracleDigest)
	printMetrics(res.Metrics)
	if len(res.Extras) > 0 {
		fmt.Println("   -- only this workload:")
		printMetrics(res.Extras)
	}
	fmt.Printf("   attempted %d, failed %d, fail_ratio %g, correct %t\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return metricLess(names[i], names[j]) })
	for _, n := range names {
		v := m[n]
		line := fmt.Sprintf("   %-36s %14.4f %-6s", n, v.Value, v.Unit)
		if len(v.LeaveOneOut) > 0 {
			parts := make([]string, len(v.LeaveOneOut))
			for i, s := range v.LeaveOneOut {
				parts[i] = fmt.Sprintf("%.4g", s)
			}
			line += "  [" + strings.Join(parts, " ") + "]"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}
