//go:build race

package presto

const raceEnabled = true
