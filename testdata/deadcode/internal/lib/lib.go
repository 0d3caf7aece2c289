// Package lib is the reachability gate's fixture library: one exported
// function of each kind the gate must tell apart.
package lib

// Reached is called from the program.
func Reached() {}

// Runner is the interface the program calls Run through.
type Runner interface{ Run() }

// Unreached is called by nothing.
func Unreached() { Transitive() }

// TestOnly is called only from lib_test.go.
func TestOnly() {}

// Transitive is called only from Unreached.
func Transitive() {}

// Impl is reached; its Run only through Runner.
type Impl struct{}

// Run is reached only through an interface method call.
func (Impl) Run() {}
