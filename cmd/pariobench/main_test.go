package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDriveInProcess runs a small mixed stream against an in-process
// server and requires the runs==misses invariant to hold (exit 0).
func TestDriveInProcess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "16", "-c", "4", "-hot", "0.75"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "hit rate") || !strings.Contains(out, "OK:") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestSweepDriveInProcess runs the sweep drive against an in-process server
// and requires the full sweep contract (points accounting, runs == cold
// points, byte-identical replay, all-cache repeat) to hold.
func TestSweepDriveInProcess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "app=fft&procs=1,2,4&opt=both"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "6 points") || !strings.Contains(out, "byte-identical") ||
		!strings.Contains(out, "OK:") {
		t.Fatalf("unexpected sweep report:\n%s", out)
	}
}

func TestSweepDriveRejectsBadSpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", "app=warp"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "sweep") {
		t.Fatalf("stderr missing sweep diagnosis: %s", stderr.String())
	}
}

func TestDriveRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-hot", "1.5"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
