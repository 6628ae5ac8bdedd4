package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// The verdicts of -compare; info marks a metric that has no bound.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info"
)

func readArtifact(path string) (*artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// spreadOf estimates, from one run, the distance between the quartiles of
// the value over many runs, as a share of the value. The run's n segments
// give n leave-one-out values t_i; the jackknife takes the variance of the
// full-sample statistic as (n-1)/n * sum (t_i - mean t)^2, and for a
// roughly normal statistic the quartiles are 1.35 standard deviations
// apart. Per-segment percentiles would overstate it badly: a p99 resting
// on a fat tail jumps between segments while the pooled p99 barely moves.
func spreadOf(v metricValue) float64 {
	n := float64(len(v.LeaveOneOut))
	if n < 2 || v.Value == 0 {
		return 0
	}
	mean := 0.0
	for _, t := range v.LeaveOneOut {
		mean += t / n
	}
	ss := 0.0
	for _, t := range v.LeaveOneOut {
		ss += (t - mean) * (t - mean)
	}
	return 1.35 * math.Sqrt((n-1)/n*ss) / math.Abs(v.Value)
}

// judge compares one metric. worse is the share of the old value by which
// the new one is worse (negative when it is better). A metric is regressed
// when it is worse by more than its bound and by more than either run's
// own spread; when the spread exceeds the bound the comparison cannot
// resolve a change of the bound's size, and is reported as such instead of
// as unchanged. A metric without a bound is shown and not judged.
func judge(def metricDef, old, new metricValue) (worse, spread float64, verdict string) {
	if old.Value != 0 {
		worse = (new.Value - old.Value) / old.Value
		if def.better == "higher" {
			worse = -worse
		}
	}
	spread = max(spreadOf(old), spreadOf(new))
	switch {
	case def.bound == 0:
		return worse, spread, verdictInfo
	case worse > def.bound && worse > spread:
		return worse, spread, verdictRegressed
	case spread > def.bound:
		return worse, spread, verdictUnresolved
	}
	return worse, spread, verdictOK
}

// runCompare prints one row per (workload, end-to-end metric) present in
// both artifacts and returns the exit code: 1 when any metric regressed or
// a workload's failed share rose.
func runCompare(oldPath, newPath string) int {
	old, err := readArtifact(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := readArtifact(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("old: %s  commit %s  %s  seed %d  %gs\n", oldPath, old.Commit, old.Go, old.Seed, old.Seconds)
	fmt.Printf("new: %s  commit %s  %s  seed %d  %gs\n", newPath, cur.Commit, cur.Go, cur.Seed, cur.Seconds)
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds || old.GOMAXPROCS != cur.GOMAXPROCS {
		fmt.Println("warning: the runs differ in seed, measuring time or GOMAXPROCS; the rows below compare different experiments")
	}
	fmt.Printf("\n%-14s %-22s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	names := make([]string, 0, len(old.Workloads))
	for n := range old.Workloads {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return workloadOrder(names[i]) < workloadOrder(names[j]) })
	code := 0
	counts := map[string]int{}
	for _, name := range names {
		o, c := old.Workloads[name]["end_to_end"], cur.Workloads[name]["end_to_end"]
		if o == nil || c == nil {
			continue
		}
		for _, def := range append(append([]metricDef(nil), endToEnd...), extras...) {
			ov, ok1 := lookup(o, def.name)
			cv, ok2 := lookup(c, def.name)
			if !ok1 || !ok2 {
				continue
			}
			worse, spread, verdict := judge(def, ov, cv)
			counts[verdict]++
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				name, def.name, ov.Value, cv.Value, 100*worse, 100*spread, 100*def.bound, verdict)
		}
		of, cf := failRatio(o), failRatio(c)
		verdict := verdictOK
		if cf > of {
			verdict, code = verdictRegressed, 1
		}
		fmt.Printf("%-14s %-22s %14.6f %14.6f %8s %8s %7s  %s\n", name, "fail_ratio", of, cf, "", "", "0", verdict)
	}
	fmt.Printf("\n%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	return code
}

func lookup(r *passResult, name string) (metricValue, bool) {
	if v, ok := r.Metrics[name]; ok {
		return v, true
	}
	v, ok := r.Extras[name]
	return v, ok
}

func failRatio(r *passResult) float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

func workloadOrder(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return len(workloads)
}
