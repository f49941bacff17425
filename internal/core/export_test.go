package core

import "testing"

// CheckSteps runs every step check (component_test.go) on each network
// solveStep is handed, in any scheduler, until the returned function
// uninstalls them; it returns how many networks were checked. It lets
// the external test hold real experiment runs to the oracle.
func CheckSteps(tb testing.TB) (uninstall func() int64) { return checkSteps(tb, "") }
