//go:build race

package noise

func init() { raceEnabled = true }
