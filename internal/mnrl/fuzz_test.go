package mnrl

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzMNRL: an MNRL file is an external input (ANMLZoo-style datasets), so
// Read and ToNFA never panic on arbitrary bytes, and every network they
// accept survives FromNFA → Write → Read → ToNFA with the same states,
// initial and final sets and anchoring.
func FuzzMNRL(f *testing.F) {
	seed := &File{}
	for _, p := range []string{"abc", "a([bc]|b.*d)", "^x[^y]z", "\\d\\x41.", "[a-z]+@"} {
		seed.Networks = append(seed.Networks, FromNFA(p, nfaOf(f, p)))
	}
	var buf bytes.Buffer
	if err := Write(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"networks":[null]}`))
	f.Add([]byte(`{"networks":[{"id":"x","nodes":[null]}]}`))
	f.Add([]byte(`{"networks":[{"id":"x","nodes":[{"id":"a","type":"hState","enable":"always","report":true,"attributes":{"symbolSet":"[\\x00-\\xff]"},"activateOnMatch":["a","a"]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, net := range file.Networks {
			nfa, err := net.ToNFA()
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := Write(&out, &File{Networks: []*Network{FromNFA(net.ID, nfa)}}); err != nil {
				t.Fatalf("network %d: write: %v", i, err)
			}
			back, err := Read(&out)
			if err != nil || len(back.Networks) != 1 {
				t.Fatalf("network %d: re-read: %v", i, err)
			}
			again, err := back.Networks[0].ToNFA()
			if err != nil {
				t.Fatalf("network %d: re-import: %v", i, err)
			}
			if !reflect.DeepEqual(again, nfa) {
				t.Fatalf("network %d changed through FromNFA/Write/Read:\n%+v\n%+v", i, nfa, again)
			}
		}
	})
}
