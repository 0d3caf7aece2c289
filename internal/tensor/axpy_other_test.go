//go:build !amd64

package tensor

import "testing"

// forEachBody runs fn once: off amd64 the Go loops are the primitive's only
// body.
func forEachBody(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("go", fn)
}
