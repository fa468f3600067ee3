//go:build !race

package blockproto

const raceEnabled = false
