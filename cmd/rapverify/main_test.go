package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeCountsRefused: a negative length or count is refused with one
// line and a non-zero exit before any work, not a makeslice panic from the trial generator.
func TestNegativeCountsRefused(t *testing.T) {
	if os.Getenv("RAPVERIFY_RUN_MAIN") == "1" {
		os.Args = strings.Fields(os.Getenv("RAPVERIFY_ARGS"))
		main()
		return
	}
	for _, args := range []string{"rapverify -len -3", "rapverify -patterns -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeCountsRefused$")
		cmd.Env = append(os.Environ(), "RAPVERIFY_RUN_MAIN=1", "RAPVERIFY_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || strings.Contains(string(out), "panic") || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%s: %v, want a one-line refusal and a non-zero exit\n%s", args, err, out)
		}
	}
}
