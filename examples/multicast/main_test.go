package main

// Example runs the demo end to end and pins what it prints: the tree
// the manager installs, each receiver's count, and when each recovers
// from the failed tree link.
func Example() {
	main()
	// Output:
	// group 0xBEEF: 3 receivers joined; fabric manager installed 11 tree entries
	//   host-p1-e0-h0 received 399 frames
	//   host-p2-e1-h1 received 399 frames
	//   host-p3-e0-h1 received 399 frames
	// → failing tree link agg-p0-s1[3]<->core-3[0]
	// ✓ host-p1-e0-h0: multicast restored after 46.032784ms
	// ✓ host-p2-e1-h1: multicast restored after 46.032784ms
	// ✓ host-p3-e0-h1: multicast restored after 46.032784ms
}
