package pregel

import "time"

// RecoveryEvent is the per-recovery breakdown appended to
// Stats.RecoveryEvents. Every recovery is a checkpoint restart: the
// whole job rewinds to the newest intact checkpoint and every partition
// recomputes forward.
type RecoveryEvent struct {
	// Superstep is the barrier at which the failure was injected.
	Superstep int `json:"superstep"`
	// CheckpointSuperstep is the superstep of the checkpoint the
	// recovery rolled back to.
	CheckpointSuperstep int `json:"checkpoint_superstep"`
	// SuperstepsReplayed counts supersteps recomputed on the way back
	// to the failure point.
	SuperstepsReplayed int `json:"supersteps_replayed"`
	// Duration is the recovery's wall time: the restore plus the
	// re-execution of the rewound supersteps.
	Duration time.Duration `json:"duration_ns"`
}

// maxRecoveries bounds the recovery attempts of one job.
const maxRecoveries = 3

// consumeRecoveryBudget charges one recovery attempt against
// maxRecoveries.
func (en *engine) consumeRecoveryBudget() error {
	if en.stats.Recoveries >= maxRecoveries {
		return ErrTooManyRecoveries
	}
	en.stats.Recoveries++
	return nil
}

// failurePhase consults the failure-injection hook for this barrier and,
// if it reports a crash, restarts the job from the newest intact
// checkpoint. rewound reports the restart, which has put en.superstep
// and the stores back to the checkpoint's, so the caller must not
// advance.
func (en *engine) failurePhase(st *step) (rewound bool, err error) {
	en.chargeReexecution(st)
	if en.cfg.FailureAt == nil || !en.cfg.FailureAt(en.superstep) {
		return false, nil
	}
	recStart := time.Now()
	if err := en.consumeRecoveryBudget(); err != nil {
		en.stats.RecoveryTime += time.Since(recStart)
		return false, err
	}
	ev := RecoveryEvent{Superstep: en.superstep}
	if err := en.restoreNewestIntact(); err != nil {
		en.stats.RecoveryTime += time.Since(recStart)
		return false, err
	}
	ev.CheckpointSuperstep = en.superstep
	ev.Duration = time.Since(recStart)
	en.stats.RecoveryTime += ev.Duration
	en.recoveryFrontier = ev.Superstep + 1
	en.openRecovery = len(en.stats.RecoveryEvents)
	en.stats.RecoveryEvents = append(en.stats.RecoveryEvents, ev)
	return true, nil
}

// chargeReexecution charges a superstep below the recovery frontier —
// re-execution after a checkpoint restart — to the recovery that
// rewound the job, so RecoveryTime reflects the real cost of restarting
// (restore plus recompute).
func (en *engine) chargeReexecution(st *step) {
	if en.recoveryFrontier == 0 {
		return
	}
	if en.superstep < en.recoveryFrontier {
		d := time.Since(st.start)
		en.stats.RecoveryTime += d
		if en.openRecovery >= 0 {
			ev := &en.stats.RecoveryEvents[en.openRecovery]
			ev.Duration += d
			ev.SuperstepsReplayed++
		}
	}
	if en.superstep+1 >= en.recoveryFrontier {
		en.recoveryFrontier = 0
		en.openRecovery = -1
	}
}
