package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all := strings.Split(catalogIDs(), ",")
	for _, c := range []struct {
		name, spec string
		want       []string // selected IDs, in order
		errHas     []string // non-nil: an error naming each of these
	}{
		{name: "all", spec: "all", want: all},
		{name: "subset comes back in catalog order", spec: "a1,f9s,t1", want: []string{"t1", "f9s", "a1"}},
		{name: "whitespace", spec: " f13 ,\tf9 ", want: []string{"f9", "f13"}},
		{name: "duplicate", spec: "mgr,mgr,ft", want: []string{"mgr", "ft"}},
		{name: "one unknown rejects the lot", spec: "f99,a6", errHas: []string{`"f99"`, catalogIDs()}},
		{name: "all unknown", spec: "bogus,f99", errHas: []string{`"bogus", "f99"`}},
		{name: "empty", spec: "", errHas: []string{`""`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sel, err := selectExperiments(c.spec)
			if c.errHas != nil {
				if err == nil {
					t.Fatalf("selected %d experiments, want an error", len(sel))
				}
				for _, s := range c.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not mention %s", err, s)
					}
				}
				if strings.Contains(err.Error(), `"a6"`) {
					t.Errorf("error %q names the valid ID a6 as an offender", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range sel {
				got = append(got, e.id)
			}
			if strings.Join(got, ",") != strings.Join(c.want, ",") {
				t.Errorf("selected %v, want %v", got, c.want)
			}
		})
	}
}
