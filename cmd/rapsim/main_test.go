package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceNeedsRAP: only RAP's simulator writes a cycle trace, so -trace
// beside any other -arch is a usage error before any work, not a run that
// exits 0 without the file.
func TestTraceNeedsRAP(t *testing.T) {
	if os.Getenv("RAPSIM_RUN_MAIN") == "1" {
		os.Args = strings.Fields(os.Getenv("RAPSIM_ARGS"))
		main()
		return
	}
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestTraceNeedsRAP$")
	cmd.Env = append(os.Environ(), "RAPSIM_RUN_MAIN=1",
		"RAPSIM_ARGS=rapsim -gen Snort -len 1000 -arch CAMA -trace "+trace)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("rapsim -trace -arch CAMA: %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-trace") {
		t.Errorf("message does not name the flag: %s", out)
	}
	if _, err := os.Stat(trace); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("trace file: %v, want none", err)
	}
}

// TestNegativeCountsRefused: a negative length or count is refused with one
// line and a non-zero exit before any work, not a makeslice panic from the input generator.
func TestNegativeCountsRefused(t *testing.T) {
	if os.Getenv("RAPSIM_RUN_MAIN") == "1" {
		os.Args = strings.Fields(os.Getenv("RAPSIM_ARGS"))
		main()
		return
	}
	for _, args := range []string{"rapsim -p abc -gen Snort -len -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeCountsRefused$")
		cmd.Env = append(os.Environ(), "RAPSIM_RUN_MAIN=1", "RAPSIM_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || strings.Contains(string(out), "panic") || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%s: %v, want a one-line refusal and a non-zero exit\n%s", args, err, out)
		}
	}
}
