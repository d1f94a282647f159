//go:build !race

package operators

const raceEnabled = false
