package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// TestEnvDefault: a GSDB_* variable seeds its flag, and a value the flag
// cannot parse is an error naming the variable and the value.
func TestEnvDefault(t *testing.T) {
	for _, tc := range []struct {
		flag, env, value string
		want             string // the flag's value after envDefault; "" for an error
	}{
		{"items", "GSDB_ITEMS", "1O24", ""},
		{"exec-timeout", "GSDB_EXEC_TIMEOUT", "ten", ""},
		{"items", "GSDB_ITEMS", "2048", "2048"},
	} {
		t.Run(tc.env+"="+tc.value, func(t *testing.T) {
			fs := flag.NewFlagSet("gsdb-server", flag.ContinueOnError)
			fs.Int("items", 1024, "")
			fs.Duration("exec-timeout", 10*time.Second, "")
			t.Setenv(tc.env, tc.value)
			f := fs.Lookup(tc.flag)
			err := envDefault(f)
			if tc.want == "" {
				if err == nil || !strings.Contains(err.Error(), tc.env) || !strings.Contains(err.Error(), tc.value) {
					t.Fatalf("envDefault: %v, want an error naming %s and %q", err, tc.env, tc.value)
				}
				return
			}
			if err != nil || f.Value.String() != tc.want || f.DefValue != tc.want {
				t.Fatalf("envDefault: %v, value %q, default %q; want %q", err, f.Value.String(), f.DefValue, tc.want)
			}
		})
	}
}

// TestTechniqueEnvRefused: a GSDB_TECHNIQUE other than "certification" is an
// error naming the variable and its value; "certification" is accepted.
func TestTechniqueEnvRefused(t *testing.T) {
	for _, value := range []string{"lazy-primary", "active", ""} {
		t.Setenv("GSDB_TECHNIQUE", value)
		if err := techniqueEnvError(); err == nil || !strings.Contains(err.Error(), "GSDB_TECHNIQUE") || !strings.Contains(err.Error(), `"`+value+`"`) {
			t.Fatalf("GSDB_TECHNIQUE=%q: %v, want an error naming the variable and the value", value, err)
		}
	}
	t.Setenv("GSDB_TECHNIQUE", "certification")
	if err := techniqueEnvError(); err != nil {
		t.Fatalf("GSDB_TECHNIQUE=certification: %v", err)
	}
}
