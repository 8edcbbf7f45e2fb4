package core

import "testing"

func TestHashStrings(t *testing.T) {
	a := HashStrings("t", "x", "y")
	b := HashStrings("t", "xy")
	if a == b {
		t.Error("HashStrings collides across splits")
	}
	if a != HashStrings("t", "x", "y") {
		t.Error("HashStrings unstable")
	}
}
