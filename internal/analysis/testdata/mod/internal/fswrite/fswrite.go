// Package fswrite violates the fsio rule every way the pass covers:
// file creation, whole-file writes and renames outside the sanctioned
// internal/store tree.  Reads and temp files stay legal.
package fswrite

import "os"

// Dump creates a file directly.
func Dump(path string) (*os.File, error) {
	return os.Create(path) // want fsio
}

// Snapshot rewrites a file in one shot.
func Snapshot(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want fsio
}

// Swap renames over a live file.
func Swap(tmp, path string) error {
	return os.Rename(tmp, path) // want fsio
}

// Load only reads; the pass fences the write verbs, not access.
func Load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// Scratch makes a temp file, which is not a durable-state write.
func Scratch() (*os.File, error) {
	return os.CreateTemp("", "scratch-*")
}

// Indirect binds the write verb to a variable first; the reference is
// the violation, not the call syntax.
func Indirect(path string) (*os.File, error) {
	w := os.Create // want fsio
	return w(path)
}
