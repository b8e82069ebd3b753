package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentRejected pins that a mistyped -only ID fails
// loudly: exit 2, the valid IDs listed, and no claim of reproduction.
func TestUnknownExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "NOPE", "-out", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `"NOPE"`) || !strings.Contains(stderr.String(), "T-cost") {
		t.Errorf("stderr does not name the bad ID and the valid ones: %q", stderr.String())
	}
	if strings.Contains(stdout.String(), "reproduced") {
		t.Errorf("an unknown ID claimed reproduction: %q", stdout.String())
	}
}

// TestRunsSelectedExperiment runs the quick cost table end to end.
func TestRunsSelectedExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "T-cost", "-out", ""}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q, stdout %q", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "REPRODUCED") || !strings.Contains(out, "all experiments reproduced the paper's claims") {
		t.Errorf("unexpected report:\n%s", out)
	}
	if strings.Count(out, "== ") != 1 {
		t.Errorf("ran %d experiments, want exactly T-cost:\n%s", strings.Count(out, "== "), out)
	}
}
