//go:build !race

package hive

const raceEnabled = false
