package sched

// SetFailedHook installs f as the hook a parallel MapCtx worker runs
// right after it records an item failure, and returns a func that
// restores the previous hook. Install it before the fan-out starts.
func SetFailedHook(f func()) (restore func()) {
	old := testHookFailed
	testHookFailed = f
	return func() { testHookFailed = old }
}
