//go:build race

package core

// raceDetector reports that the tests run under the race detector, whose
// sync.Pool drops a random share of Puts, so allocation counts of paths
// that pool buffers (audit.CheckPacked, which every persistent batch
// passes, does) are not fixed there.
const raceDetector = true
