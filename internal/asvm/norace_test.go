//go:build !race

package asvm

const raceEnabled = false
