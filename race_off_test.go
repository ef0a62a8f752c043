//go:build !race

package offt

// raceDetectorEnabled reports whether the race detector instruments this
// test binary; the allocation gates skip under -race because the
// instrumented runtime allocates on its own.
const raceDetectorEnabled = false
