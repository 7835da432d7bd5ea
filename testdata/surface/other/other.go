// Package other is imported by nothing.
package other

// Orphan is used by Example functions only.
type Orphan struct{}
