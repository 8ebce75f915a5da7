//go:build race

package machine

func init() { raceEnabled = true }
