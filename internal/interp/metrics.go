package interp

import "mvpar/internal/obs"

// recordRunStats publishes one Run's aggregate statistics. A traced run
// also publishes the tracer event volume; open is the number of loop
// frames left on the stack (a return from inside a loop skips its
// LoopExit), so exits are the enters less open.
func recordRunStats(s Stats, traced bool, open int) {
	var iters, enters int64
	for _, n := range s.LoopIters {
		iters += n
	}
	for _, n := range s.LoopEnter {
		enters += n
	}
	obs.GetCounter("mvpar_interp_runs_total").Inc()
	obs.GetCounter("mvpar_interp_steps_total").Add(s.Steps)
	obs.GetCounter("mvpar_interp_loop_iters_total").Add(iters)
	if !traced {
		return
	}
	obs.GetCounter("mvpar_interp_access_events_total").Add(s.Accesses)
	obs.GetCounter("mvpar_interp_write_events_total").Add(s.Writes)
	obs.GetCounter("mvpar_interp_loop_enter_events_total").Add(enters)
	obs.GetCounter("mvpar_interp_loop_iter_events_total").Add(iters)
	obs.GetCounter("mvpar_interp_loop_exit_events_total").Add(enters - int64(open))
}
