//go:build race

package cluster_test

const raceEnabled = true
