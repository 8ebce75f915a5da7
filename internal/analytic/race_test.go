//go:build race

package analytic_test

func init() { raceEnabled = true }
