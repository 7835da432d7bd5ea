// Package lib plants exports for the exported-surface check.
package lib

// Used has a user in package app.
func Used() int { return helper() }

// Unused is referenced only by its own declaration and a test.
func Unused() int { return Unused() }

// Allowed has no user but is allowlisted.
const Allowed = 1

func helper() int { return 0 }
