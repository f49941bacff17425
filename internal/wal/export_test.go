package wal

import "testing"

// RequireRecoveryMatchesReference holds a serving tier's boot to the
// read-everything reference for the tests outside this package that
// boot one: got is the State the boot recovered, twin a copy of its
// WAL directory taken before the boot. It returns how many records the
// reference read before the loaded checkpoint's position — the ones
// the boot did not have to.
func RequireRecoveryMatchesReference(t *testing.T, got *State, twin string) (absorbed int) {
	t.Helper()
	want, absorbed := referenceRecover(t, twin)
	requireSameRecovery(t, got, want, "boot")
	return absorbed
}
