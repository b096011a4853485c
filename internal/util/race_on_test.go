//go:build race

package util

const raceEnabled = true
