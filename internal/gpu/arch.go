// Package gpu describes the GPU architectures the paper evaluates on
// (Table III) plus the microarchitectural parameters the analytical
// performance model in internal/sim needs. The four catalog entries carry
// the paper's published specs verbatim; per-SM resources come from the
// vendor whitepapers for each generation.
package gpu

import "fmt"

// Arch describes one GPU architecture.
type Arch struct {
	// Name is the marketing name used throughout the paper ("V100", ...).
	Name string
	// Generation is the architecture family ("Pascal", "Volta", ...).
	Generation string
	// MemGB is the device memory capacity in gigabytes.
	MemGB float64
	// MemBWGBs is the peak device memory bandwidth in GB/s.
	MemBWGBs float64
	// SMs is the number of streaming multiprocessors.
	SMs int
	// TFLOPS is the peak double-precision throughput in TFLOP/s as listed
	// in Table III.
	TFLOPS float64
	// RentalPerHour is the Google Cloud rental price in USD/hour
	// (October 2021, us-central1); zero when not rentable (2080 Ti).
	RentalPerHour float64

	// Microarchitectural parameters used by the performance model.

	// RegsPerSM is the register-file size per SM in 32-bit registers.
	RegsPerSM int
	// SmemPerSMKB is the maximum shared memory per SM in KiB.
	SmemPerSMKB int
	// MaxThreadsPerSM is the hardware thread-residency limit per SM.
	MaxThreadsPerSM int
	// MaxRegsPerThread is the per-thread register ceiling before spilling.
	MaxRegsPerThread int
	// L2MB is the L2 cache size in MiB.
	L2MB float64
	// ClockGHz is the boost clock in GHz; it scales fixed-latency costs
	// such as kernel launch and barrier synchronization.
	ClockGHz float64
}

// HasRental reports whether the GPU is available for cloud rental.
func (a Arch) HasRental() bool { return a.RentalPerHour > 0 }

// String returns the architecture name.
func (a Arch) String() string { return a.Name }

// FeatureNames lists the hardware feature vector layout used as regressor
// input, mirroring the paper's choice of memory capacity/bandwidth, SM
// count, and peak FLOPS.
var FeatureNames = []string{"memGB", "memBWGBs", "sms", "tflops"}

// FeaturesInto writes the hardware characteristics attached to
// regression inputs (Sec. IV-E) — memory capacity and bandwidth, SM
// count, peak FLOPS — into dst (len(FeatureNames)) without allocating.
func (a Arch) FeaturesInto(dst []float64) {
	if len(dst) != len(FeatureNames) {
		panic(fmt.Sprintf("gpu: features dst %d, want %d", len(dst), len(FeatureNames)))
	}
	dst[0] = a.MemGB
	dst[1] = a.MemBWGBs
	dst[2] = float64(a.SMs)
	dst[3] = a.TFLOPS
}

// Catalog returns the four GPUs of Table III in the paper's order.
// P100/V100/A100 carry their rental prices; the 2080 Ti is not rentable.
func Catalog() []Arch {
	return []Arch{
		{
			Name: "P100", Generation: "Pascal",
			MemGB: 16, MemBWGBs: 720, SMs: 56, TFLOPS: 5.3, RentalPerHour: 1.46,
			RegsPerSM: 65536, SmemPerSMKB: 64, MaxThreadsPerSM: 2048,
			MaxRegsPerThread: 255, L2MB: 4, ClockGHz: 1.30,
		},
		{
			Name: "V100", Generation: "Volta",
			MemGB: 32, MemBWGBs: 900, SMs: 80, TFLOPS: 7.8, RentalPerHour: 2.48,
			RegsPerSM: 65536, SmemPerSMKB: 96, MaxThreadsPerSM: 2048,
			MaxRegsPerThread: 255, L2MB: 6, ClockGHz: 1.53,
		},
		{
			Name: "2080Ti", Generation: "Turing",
			MemGB: 11, MemBWGBs: 616, SMs: 68, TFLOPS: 0.41, RentalPerHour: 0,
			RegsPerSM: 65536, SmemPerSMKB: 64, MaxThreadsPerSM: 1024,
			MaxRegsPerThread: 255, L2MB: 5.5, ClockGHz: 1.635,
		},
		{
			Name: "A100", Generation: "Ampere",
			MemGB: 40, MemBWGBs: 1555, SMs: 108, TFLOPS: 9.7, RentalPerHour: 2.93,
			RegsPerSM: 65536, SmemPerSMKB: 164, MaxThreadsPerSM: 2048,
			MaxRegsPerThread: 255, L2MB: 40, ClockGHz: 1.41,
		},
	}
}

// ByName looks up a catalog architecture by its Table III name.
func ByName(name string) (Arch, error) {
	for _, a := range Catalog() {
		if a.Name == name {
			return a, nil
		}
	}
	return Arch{}, fmt.Errorf("gpu: unknown architecture %q", name)
}
