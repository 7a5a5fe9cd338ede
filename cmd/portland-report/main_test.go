package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portland/internal/obs"
)

// goldens are the checked-in cell reports the experiments package pins.
var goldens = []string{"fig9", "sc", "mgr", "ft"}

func goldenPath(name string) string {
	return filepath.Join("..", "..", "internal", "experiments", "testdata", name+"-report.golden.json")
}

// malformed is a report whose ARP histogram has an overflow count but
// no bounds: rendering it used to index bounds[-1].
const malformed = `{"schema":1,"experiment":"f9","seed":1,"arp_latency":{"unit":"us","bounds_us":[],"counts":[1],"n":1,"max_ns":5}}`

// TestReplayWritesGolden: -o writes exactly the bytes of the golden
// whose cell the flags name.
func TestReplayWritesGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "f9", "-point", "1", "-trial", "3", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-o wrote %d bytes that differ from the fig9 golden's %d", len(got), len(want))
	}
	if !strings.HasPrefix(stdout.String(), "report: experiment=f9 ") {
		t.Errorf("stdout opens %q, want the rendered f9 report", stdout.String()[:min(40, stdout.Len())])
	}
}

// TestUsageErrorsExit2: an entry without cell replay and an unknown ID
// are usage errors, each with a message and nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, c := range []struct{ exp, msg string }{
		{"f10", "f10 has no cell replay"},
		{"bogus", `unknown experiment "bogus"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", c.exp}, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("-exp %s: exit %d, stdout %q, stderr %q; want 2, nothing, and a message with %q",
				c.exp, code, stdout.String(), stderr.String(), c.msg)
		}
	}
}

// TestDecodeMalformedExits1: a report Decode rejects is an error exit,
// not a panic in render.
func TestDecodeMalformedExits1(t *testing.T) {
	in := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(in, []byte(malformed), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-decode", in}, &stdout, &stderr); code != 1 || stderr.Len() == 0 {
		t.Errorf("-decode of a malformed report: exit %d, stderr %q; want 1 and a message", code, stderr.String())
	}
}

// FuzzRender: any input Decode accepts renders, as text and as the
// Prometheus dump, without panicking.
func FuzzRender(f *testing.F) {
	for _, g := range goldens {
		b, err := os.ReadFile(goldenPath(g))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(malformed))
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := obs.Decode(bytes.NewReader(b))
		if err != nil {
			return
		}
		render(io.Discard, rep)
		if err := rep.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
