package main

import (
	"os"
	"testing"

	"ssmdvfs/internal/experiments"
)

func TestBuildControllerStaticAndAnalytical(t *testing.T) {
	opts := experiments.QuickPipelineOptions()
	cases := map[string]string{
		"baseline": "",
		"pcstall":  "pcstall",
		"flemma":   "flemma",
		"static-2": "static-2",
	}
	for mech, wantName := range cases {
		ctrl, err := buildController(mech, 0.10, opts, 1)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if mech == "baseline" {
			if ctrl != nil {
				t.Fatal("baseline must have no controller")
			}
			continue
		}
		if ctrl.Name() != wantName {
			t.Fatalf("%s: Name() = %q", mech, ctrl.Name())
		}
	}
}

// TestBuildControllerRejectsUnknown: a name the factory does not know —
// the oracle searches included, which it knows but cannot hand a
// controller for — is refused before the pipeline trains anything into
// the cache.
func TestBuildControllerRejectsUnknown(t *testing.T) {
	opts := experiments.QuickPipelineOptions()
	opts.CacheDir = t.TempDir()
	for _, mech := range []string{"magic", "ssmdvfs-typo", "static-best", "oracle-greedy"} {
		if _, err := buildController(mech, 0.10, opts, 1); err == nil {
			t.Fatalf("%s accepted", mech)
		}
	}
	if left, err := os.ReadDir(opts.CacheDir); err != nil || len(left) != 0 {
		t.Fatalf("rejecting a name ran the pipeline: cache holds %d entries (%v)", len(left), err)
	}
}

func TestBuildControllerRejectsBadStaticLevel(t *testing.T) {
	opts := experiments.QuickPipelineOptions()
	for _, mech := range []string{"static-x", "static-9", "static--1"} {
		if _, err := buildController(mech, 0.10, opts, 1); err == nil {
			t.Fatalf("%s accepted", mech)
		}
	}
}
