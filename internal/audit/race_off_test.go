//go:build !race

package audit

// raceDetector reports that the tests run under the race detector (see
// race_on_test.go).
const raceDetector = false
