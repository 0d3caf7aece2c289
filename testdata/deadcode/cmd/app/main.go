// Command app is the fixture's only program.
package main

import "fixture/internal/lib"

func main() {
	lib.Reached()
	var r lib.Runner = lib.Impl{}
	r.Run()
}
