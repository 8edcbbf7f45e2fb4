package patfile

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestReadSkipsBlanksAndComments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	content := "cat\n\n# comment\n  ab{3,9}c  \n#another\nxyz\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cat", "ab{3,9}c", "xyz"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pattern %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReadLongLine(t *testing.T) {
	// A line beyond bufio.MaxScanTokenSize (64 KiB) made the old inlined
	// loops stop mid-file without any error — the bug this package fixes.
	path := filepath.Join(t.TempDir(), "rules.txt")
	long := strings.Repeat("ab", 100_000) // 200 KB
	if err := os.WriteFile(path, []byte("first\n"+long+"\nlast\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != long || got[2] != "last" {
		t.Fatalf("long line mishandled: %d patterns", len(got))
	}
}

func TestReadOverLongLineErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	huge := strings.Repeat("x", maxLineBytes+1)
	if err := os.WriteFile(path, []byte(huge), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong (not a silent truncation)", err)
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("expected error")
	}
}

// FuzzPatfile parses arbitrary files: parse never panics, returns only
// trimmed, non-empty, non-comment patterns — the lines of the file that
// are such, in order — and, with a line over maxLineBytes spliced in at
// the seed's offset, returns an error and no patterns, never the ruleset
// read up to the long line.
func FuzzPatfile(f *testing.F) {
	f.Add([]byte("cat\n\n# comment\n  ab{3,9}c  \n#another\nxyz\n"), false, uint16(0))
	f.Add([]byte("a\r\n \t# c\r\n\tb\t\nlast"), true, uint16(2))
	f.Add([]byte{}, true, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, long bool, at uint16) {
		var r io.Reader = bytes.NewReader(data)
		if long {
			cut := int(at) % (len(data) + 1)
			r = io.MultiReader(bytes.NewReader(data[:cut]),
				io.LimitReader(repeatReader('x'), maxLineBytes+1), bytes.NewReader(data[cut:]))
		}
		got, err := parse(r)
		if long {
			if !errors.Is(err, bufio.ErrTooLong) || got != nil {
				t.Fatalf("line over %d bytes at %d: %d patterns, err %v; want none and ErrTooLong", maxLineBytes, at, len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("parse(%q): %v", data, err)
		}
		var want []string
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				want = append(want, line)
			}
		}
		for _, p := range got {
			if p == "" || p != strings.TrimSpace(p) || strings.HasPrefix(p, "#") {
				t.Fatalf("parse(%q) returned pattern %q", data, p)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parse(%q) = %q, want the file's pattern lines %q", data, got, want)
		}
	})
}

// repeatReader reads as an endless run of one byte.
type repeatReader byte

func (b repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
