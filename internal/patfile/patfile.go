// Package patfile reads pattern-list files for the CLI tools: one pattern
// per line, blank lines and '#' comments ignored.
//
// It exists because the inlined bufio.Scanner loops it replaces silently
// truncated the ruleset on a read error or an over-long line (Scanner.Err
// was never checked) — a wrong-results bug for a matcher, since missing
// patterns just mean missing matches.
package patfile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// maxLineBytes is the per-line cap. Real rule sets (ClamAV signatures)
// carry multi-kilobyte lines; 4 MiB is far beyond any of them while still
// bounding memory on a corrupt file.
const maxLineBytes = 4 << 20

// Read loads the pattern file at path. Unlike a bare Scanner loop it
// reports read errors and over-long lines instead of returning the
// partial ruleset read so far.
func Read(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	patterns, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return patterns, nil
}

// parse is the io.Reader core of Read, split out for testing.
func parse(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	var patterns []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		patterns = append(patterns, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return patterns, nil
}
