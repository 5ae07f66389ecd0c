//go:build race

package stream

// raceDetector reports that the tests run under the race detector, which
// slows single-goroutine sweeps about tenfold without finding anything in
// them; the largest sweeps sample more sparsely there.
const raceDetector = true
