// Command benchmark is the repository's benchmark: seven named workloads
// over AIRCA at scale 1.0, each measured end to end with tracing off and,
// in a second traced pass, layer by layer.
//
//	go run ./benchmark                      # every workload, both passes
//	go run ./benchmark -json out.json       # ... and write the artifact
//	go run ./benchmark -workload engine-hot -trace 0 -seed 7 -seconds 8
//	go run ./benchmark -smoke               # a quick does-it-still-work run
//	go run ./benchmark -compare old.json new.json
//
// bash benchmark/run.sh is the same program built into .bench_build/ with
// every build cache inside the checkout; BENCHMARK.json names it as the
// command. Given one workload and one -trace value, the last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// The program under test only ever sees generated ops: the data is
// workload.Airca at a fixed scale and data seed, and pools, write rows and
// op streams derive from -seed. Every run checks its answers against an
// oracle computed with the conventional evaluator before the service saw
// any op, and exits non-zero when an op failed, an answer differed, or a
// workload no longer takes the serving path it exists to measure.
//
// README.md in this directory describes the workloads, the metrics, which
// layer metric should move which end-to-end metric on which workload, and
// the rule that a change claiming a gain may not edit this directory.
package main
