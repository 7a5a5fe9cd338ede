package main

import (
	"bytes"
	"strings"
	"testing"

	"portland/internal/experiments"
)

// TestListFollowsCatalog: -list prints one line per catalog entry, in
// catalog order, each opening with the entry's ID.
func TestListFollowsCatalog(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(experiments.Catalog) {
		t.Fatalf("-list printed %d lines for %d catalog entries:\n%s", len(lines), len(experiments.Catalog), out.String())
	}
	for i, e := range experiments.Catalog {
		if id, _, _ := strings.Cut(lines[i], " "); id != e.ID {
			t.Errorf("-list line %d is %q, want it to open with %q", i, lines[i], e.ID)
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &out); code != 2 || out.Len() != 0 {
		t.Fatalf("-exp bogus exited %d having printed %q, want 2 and nothing", code, out.String())
	}
}
