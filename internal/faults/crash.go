package faults

// FailAt builds a pregel.Config.FailureAt hook that crashes the job
// exactly once, at the barrier after the given superstep completes. A
// one-shot hook is the useful shape for recovery experiments: a hook
// that kept firing would re-fail the job every time the restart
// re-executed that superstep, and it could never make progress.
func FailAt(superstep int) func(int) bool {
	fired := false
	return func(s int) bool {
		if fired || s != superstep {
			return false
		}
		fired = true
		return true
	}
}
