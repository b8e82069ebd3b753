package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// islStroke is the stroke color -links draws inter-satellite links with.
const islStroke = `stroke="#bbb"`

// TestRendersPreset renders the Iridium preset to stdout, with and
// without links.
func TestRendersPreset(t *testing.T) {
	var plain, linked, stderr bytes.Buffer
	if code := run([]string{"-preset", "iridium"}, &plain, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	svg := plain.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("stdout is not an SVG document: %.80q", svg)
	}
	if n := strings.Count(svg, "<circle"); n != 66 {
		t.Errorf("rendered %d satellites, want Iridium's 66", n)
	}
	if strings.Contains(svg, islStroke) {
		t.Error("links drawn without -links")
	}
	if code := run([]string{"-preset", "iridium", "-t", "60", "-links"}, &linked, &stderr); code != 0 {
		t.Fatalf("-links exit code = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(linked.String(), islStroke) {
		t.Error("-links drew no inter-satellite links")
	}
}

// TestUsageErrors pins the exit codes of bad invocations: 2 for usage
// errors, 1 for a configuration that cannot be read.
func TestUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.toml")
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"unknown preset", []string{"-preset", "oneweb"}, 2, "valid: iridium starlink"},
		{"unknown preset with config", []string{"-preset", "oneweb", "-config", missing}, 2, "valid: iridium starlink"},
		{"preset and config", []string{"-preset", "iridium", "-config", missing}, 2, "mutually exclusive"},
		{"stray arguments", []string{"-preset", "iridium", "extra"}, 2, "unexpected arguments"},
		{"no source", nil, 2, "-preset or -config"},
		{"bad flag", []string{"-nope"}, 2, "-nope"},
		{"unreadable config", []string{"-config", missing}, 1, "missing.toml"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit code = %d, want %d (stderr %q)", tc.name, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", tc.name, stdout.Len())
		}
	}
}
