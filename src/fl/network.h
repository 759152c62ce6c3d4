#ifndef FEDDA_FL_NETWORK_H_
#define FEDDA_FL_NETWORK_H_

#include <vector>

#include "fl/network_model.h"
#include "fl/runner.h"

namespace fedda::fl {

// The simulator itself is instantaneous; the NetworkModel constants
// (fl/network_model.h) convert a finished run's transmission accounting
// into estimated wall-clock time so "fewer transmitted parameters" can be
// read as "faster rounds" (time-to-accuracy), the way a deployment would
// experience FedDA.

/// Wall-clock estimate for one round and the running total.
struct RoundTiming {
  double round_sec = 0.0;
  double cumulative_sec = 0.0;
};

/// Estimates per-round durations for a finished run. Synchronous rounds:
/// duration = latency + downlink(straggler) + compute(E epochs) +
/// uplink(straggler). A synchronous round ends when its *slowest*
/// participant finishes, so both transfer phases are charged with the
/// round's straggler's measured wire bytes (RoundRecord::max_downlink_bytes
/// / max_uplink_bytes) — masks, headers, and the version-tracked downlink
/// included — instead of a flat full-model broadcast. Rounds with no
/// participants cost only the latency. `local_epochs` is the E used in the
/// run.
///
/// Synchronous histories only: a semi-async run already measures its
/// network time in virtual_time_sec with these same constants, so
/// re-estimating here would double-count every transfer — passing a
/// kSemiAsync result is a CHECK failure.
std::vector<RoundTiming> SimulateTiming(const FlRunResult& result,
                                        const NetworkModel& model,
                                        int local_epochs);

/// First cumulative time (seconds) at which the run's evaluated AUC reaches
/// `target_auc`, or -1 if never. Requires per-round evaluation in `result`.
double TimeToAccuracy(const FlRunResult& result,
                      const std::vector<RoundTiming>& timing,
                      double target_auc);

}  // namespace fedda::fl

#endif  // FEDDA_FL_NETWORK_H_
