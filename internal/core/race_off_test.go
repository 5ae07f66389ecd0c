//go:build !race

package core

// raceDetector reports that the tests run under the race detector (see
// race_on_test.go).
const raceDetector = false
