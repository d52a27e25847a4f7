//go:build race

package main

// raceEnabled: the race detector allocates on its own, so allocation
// budgets mean nothing under it.
const raceEnabled = true
