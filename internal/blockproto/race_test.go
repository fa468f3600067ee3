//go:build race

package blockproto

// raceEnabled is set when the race detector instruments the build. Its
// instrumentation allocates where a normal build does not (slices.Grow's
// append of a make is not fused), so allocation counts are not checked.
const raceEnabled = true
