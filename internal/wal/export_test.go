package wal

import "testing"

// RequireRecoveryMatchesReference holds a serving tier's boot to the
// read-everything reference for the tests outside this package that
// boot one: got is the State the boot recovered, twin a copy of its
// WAL directory taken before the boot. It returns the reference's
// State.
func RequireRecoveryMatchesReference(t *testing.T, got *State, twin string) *State {
	t.Helper()
	want := referenceRecover(t, twin)
	requireSameRecovery(t, got, want, "boot")
	return want
}
