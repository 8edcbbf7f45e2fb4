package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// HashStrings gives a configuration a stable identity: it hashes a format
// tag plus length-prefixed parts, so two requests producing the same
// compiled form hash identically, no concatenation of distinct lists
// collides, and any semantic difference — a pattern edited, a knob
// changed — produces a different key. The serving layer's program cache
// keys on it (refmatch options as the tag, the patterns as the parts).
func HashStrings(tag string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|n=%d", tag, len(parts))
	for _, p := range parts {
		fmt.Fprintf(h, "|%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
