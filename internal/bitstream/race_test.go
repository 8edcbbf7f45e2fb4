//go:build race

package bitstream

const raceEnabled = true
