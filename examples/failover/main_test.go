package main

// Example runs the demo end to end and pins what it prints: the link
// the flow rides, the reconvergence time and the probe loss.
func Example() {
	main()
	// Output:
	// flow host-p0-e0-h0 → host-p3-e1-h1 warmed up: 500 probes delivered
	// flow is riding agg-p0-s0[2]<->core-0[0] — failing it now
	// ✓ fabric reconverged in 46.707122ms (LDM detection + fabric-manager redistribution + local ECMP)
	// ✓ link restored; disturbance on recovery: 0s
	//   total probes: sent=2600 received=2553 (loss 1.81%)
}
