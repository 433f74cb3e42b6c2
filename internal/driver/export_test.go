package driver

// SetCutoffCheck turns the test-time cut-off check on or off and returns
// the previous setting, for the tests that measure what a production
// recompile allocates or takes.
func SetCutoffCheck(on bool) bool {
	old := cutoffCheck
	cutoffCheck = on
	return old
}
