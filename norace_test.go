//go:build !race

package retypd

const raceEnabled = false
