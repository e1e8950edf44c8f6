package sim

// Test-only exports for package sim_test. The oracle, Reference and
// NewReference, is declared in reference_test.go and reaches sim_test the
// same way.

// DefaultNoise is the calibrated noise configuration New builds.
var DefaultNoise = defaultNoise

// NewWithNoise returns a model with other noise weights; used by the
// noise-ablation benchmark.
func NewWithNoise(n noiseConfig) *Model {
	return &Model{noise: n, table: newEvalTable()}
}
