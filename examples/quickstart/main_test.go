package main

// Example runs the demo end to end and pins what it prints: discovery
// time, delivery, the PMAC in the sender's cache and the control-plane
// byte counts.
func Example() {
	main()
	// Output:
	// ✓ location discovery finished at t=50ms (virtual)
	// ✓ discovered levels/pods/positions match the blueprint
	// ✓ delivered 10/10 datagrams from host-p0-e0-h0 to host-p3-e1-h1
	//   sender's ARP cache for 10.0.0.16: 00:00:00:01:00:01 (a PMAC)
	//   receiver's real MAC:       02:00:00:00:00:0f (never seen by the sender)
	//   control plane so far: 6445 B up, 268 B down
}
