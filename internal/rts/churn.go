package rts

import "shangrila/internal/profiler"

// Control-plane churn: dynamic policy updates applied mid-run through
// the same host → XScale control path that boots the tables. Each update
// is a control-function invocation scheduled at an absolute cycle; the
// XScale interpreter stores through simulated shared memory, so the data
// plane observes the update exactly as the paper's delayed-update
// software-cache protocol allows — at each ME's next version check.

// Update is one scheduled control-plane change.
type Update struct {
	// At is the absolute machine cycle the update fires.
	At int64
	// Control is the call to apply (name + args, the boot-control form).
	Control profiler.Control
}

// ChurnStats counts scheduled vs applied updates of one run segment.
type ChurnStats struct {
	Scheduled int `json:"scheduled"`
	Applied   int `json:"applied"`
	Failed    int `json:"failed"`
}

// ScheduleUpdates registers every update with the machine's event queue.
// The returned stats fill in as the run crosses each update's cycle;
// read them only between Run segments.
func (r *Runtime) ScheduleUpdates(updates []Update) *ChurnStats {
	st := &ChurnStats{Scheduled: len(updates)}
	for _, u := range updates {
		r.M.At(u.At, func() {
			if err := r.Control(u.Control.Name, u.Control.Args...); err != nil {
				st.Failed++
				return
			}
			st.Applied++
		})
	}
	return st
}
