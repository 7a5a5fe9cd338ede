package obs_test

import (
	"fmt"
	"time"

	"portland/internal/obs"
)

// A constant-rate probe flow is interrupted by a fault at t=50ms and
// resumes at t=80ms. ConvergenceAfter reports the interruption the
// receiver saw: first-arrival-after-fault minus the nominal interval,
// so an undisturbed flow measures 0.
func ExampleRecorder_ConvergenceAfter() {
	var r obs.Recorder
	for t := 10 * time.Millisecond; t <= 50*time.Millisecond; t += 10 * time.Millisecond {
		r.Record(t)
	}
	// Fault at t=50ms; the next arrival is not until t=80ms.
	r.Record(80 * time.Millisecond)
	r.Record(90 * time.Millisecond)

	conv, ok := r.ConvergenceAfter(50*time.Millisecond, 10*time.Millisecond)
	fmt.Println(conv, ok)

	// An undisturbed window measures zero: arrivals keep the nominal
	// spacing, so first-after minus nominal clamps to 0.
	conv, ok = r.ConvergenceAfter(20*time.Millisecond, 10*time.Millisecond)
	fmt.Println(conv, ok)
	// Output:
	// 20ms true
	// 0s true
}

// A flow limps through a flapping path: after the fault it delivers a
// straggler at t=60ms, stalls again, and only settles from t=120ms on.
// ConvergenceAfter credits the straggler; SteadyAfter waits until
// every later inter-arrival gap stays within maxGap, reporting the
// instant full-rate delivery resumed.
func ExampleRecorder_SteadyAfter() {
	var r obs.Recorder
	r.Record(40 * time.Millisecond)
	r.Record(50 * time.Millisecond)
	// Fault at t=50ms. One straggler sneaks through, then a long
	// stall, then steady 10ms arrivals.
	r.Record(60 * time.Millisecond)
	for t := 120 * time.Millisecond; t <= 150*time.Millisecond; t += 10 * time.Millisecond {
		r.Record(t)
	}

	conv, _ := r.ConvergenceAfter(50*time.Millisecond, 10*time.Millisecond)
	steady, _ := r.SteadyAfter(50*time.Millisecond, 20*time.Millisecond)
	fmt.Println("first event after fault:", conv)
	fmt.Println("steady again at:", steady)
	// Output:
	// first event after fault: 0s
	// steady again at: 120ms
}
