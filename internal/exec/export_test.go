package exec

// The tuple-at-a-time reference evaluator (legacy_test.go), exposed to the
// external exec_test package's differential walls and benchmarks.
var (
	RunLegacy         = runLegacy
	RunBaselineLegacy = runBaselineLegacy
)
