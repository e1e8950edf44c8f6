package core

// ServeArena is grow-only per-call scratch for the serving pipeline:
// each ServePredictBatchF32 call resets the arena it is given and carves
// every row/output buffer from three slabs. A slab that runs short is
// replaced by a larger one, so once warm a call allocates nothing in the
// scoring path. Hand-outs are zeroed. An arena is not safe for concurrent
// use: the serving layer gives each scoring call its own.
type ServeArena struct {
	f64  []float64
	f32  []float32
	rows [][]float32

	f64Off, f32Off, rowsOff int
}

// NewServeArena returns an empty arena; slabs grow on first use.
func NewServeArena() *ServeArena { return &ServeArena{} }

// Reset recycles every slab for the next batch. Buffers handed out
// before Reset must no longer be referenced.
func (a *ServeArena) Reset() {
	a.f64Off, a.f32Off, a.rowsOff = 0, 0, 0
}

// arenaMinSlab is the initial slab element count; big enough that tiny
// first batches don't trigger a growth ladder.
const arenaMinSlab = 1024

func grownCap(have, need int) int {
	size := have * 2
	if size < need {
		size = need
	}
	if size < arenaMinSlab {
		size = arenaMinSlab
	}
	return size
}

// F64 hands out a zeroed []float64 of length n from the slab.
func (a *ServeArena) F64(n int) []float64 {
	if a.f64Off+n > len(a.f64) {
		a.f64 = make([]float64, grownCap(len(a.f64), n))
		a.f64Off = 0
	}
	s := a.f64[a.f64Off : a.f64Off+n : a.f64Off+n]
	a.f64Off += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// F32 hands out a zeroed []float32 of length n from the slab.
func (a *ServeArena) F32(n int) []float32 {
	if a.f32Off+n > len(a.f32) {
		a.f32 = make([]float32, grownCap(len(a.f32), n))
		a.f32Off = 0
	}
	s := a.f32[a.f32Off : a.f32Off+n : a.f32Off+n]
	a.f32Off += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// Rows hands out a nil-cleared [][]float32 of length n from the slab.
func (a *ServeArena) Rows(n int) [][]float32 {
	if a.rowsOff+n > len(a.rows) {
		a.rows = make([][]float32, grownCap(len(a.rows), n))
		a.rowsOff = 0
	}
	s := a.rows[a.rowsOff : a.rowsOff+n : a.rowsOff+n]
	a.rowsOff += n
	for i := range s {
		s[i] = nil
	}
	return s
}
