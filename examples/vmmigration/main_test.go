package main

// Example runs the demo end to end and pins what it prints: the
// connection survives the move, and the client's cache follows the VM
// to its new PMAC.
func Example() {
	main()
	// Output:
	// VM serving on host-p1-e0-h0: client delivered 227 MB so far (VM reachable at PMAC 00:00:00:00:00:01)
	// → freezing VM, copying state (300 ms blackout), resuming on host-p3-e1-h1
	// ✓ connection survived: 227 MB → 256 MB delivered, state=established
	// ✓ client's neighbor cache updated transparently: 00:00:00:00:00:01 → 00:01:00:01:00:01
	//   RTO events during migration: 3 (TCP rode out the blackout)
	//   fabric manager recorded 1 migration(s)
}
