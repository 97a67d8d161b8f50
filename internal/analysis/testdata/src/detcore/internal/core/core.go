// Fixture for the detcore analyzer: nondeterminism sources inside a
// deterministic-core package path.
package core

import (
	_ "math/rand" // want `math/rand`
	"time"
)

func accumulate(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // want `range over a map`
		total += v
	}
	return total
}

func timed() time.Duration {
	t0 := time.Now()      // want `time.Now`
	return time.Since(t0) // want `time.Since`
}

func fanOut(work []func()) {
	for _, w := range work {
		go w() // want `go statement`
	}
}

func orderedSum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

func allowedCount(m map[int]bool) int {
	n := 0
	//lint:allow detcore counting only: iteration order cannot affect a cardinality
	for range m { // want:suppressed `range over a map`
		n++
	}
	return n
}
