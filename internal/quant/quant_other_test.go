//go:build !amd64

package quant

import "testing"

// forEachBody runs fn once: off amd64 the Go loops are the only body.
func forEachBody(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("go", fn)
}
