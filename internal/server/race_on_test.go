//go:build race

package server

// raceDetector reports that the tests run under the race detector, whose
// sync.Pool drops a random share of Puts, so allocation counts of paths
// that pool buffers (encoding/json does) are not fixed there.
const raceDetector = true
