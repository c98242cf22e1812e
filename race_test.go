//go:build race

package hcoc

func init() { raceEnabled = true }
