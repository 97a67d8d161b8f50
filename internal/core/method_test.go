package core_test

import (
	"testing"

	"repro/internal/core"
)

// TestParseMethod pins the wire names: every method round-trips through
// Name and ParseMethod, the empty name selects CPT, and anything else —
// including a different case or an out-of-range Method's rendering — is
// rejected.
func TestParseMethod(t *testing.T) {
	for _, tc := range []struct {
		name string
		want core.Method
	}{
		{"scan", core.MethodScan},
		{"prune", core.MethodPrune},
		{"thres", core.MethodThres},
		{"cpt", core.MethodCPT},
		{"", core.MethodCPT},
	} {
		got, err := core.ParseMethod(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, m := range core.Methods {
		got, err := core.ParseMethod(m.Name())
		if err != nil || got != m {
			t.Errorf("%v: ParseMethod(%q) = %v, %v", m, m.Name(), got, err)
		}
	}
	for _, bad := range []string{"CPT", "Scan", "nra", "cpt ", core.Method(9).Name()} {
		if m, err := core.ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) = %v, want an error", bad, m)
		}
	}
}
