package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeCountsRefused: a negative length or count is refused with one
// line and a non-zero exit before any work, not a makeslice panic from the input generator.
func TestNegativeCountsRefused(t *testing.T) {
	if os.Getenv("RAPBENCH_RUN_MAIN") == "1" {
		os.Args = strings.Fields(os.Getenv("RAPBENCH_ARGS"))
		main()
		return
	}
	for _, args := range []string{"rapbench -exp fig1 -input -5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeCountsRefused$")
		cmd.Env = append(os.Environ(), "RAPBENCH_RUN_MAIN=1", "RAPBENCH_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || strings.Contains(string(out), "panic") || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%s: %v, want a one-line refusal and a non-zero exit\n%s", args, err, out)
		}
	}
}
