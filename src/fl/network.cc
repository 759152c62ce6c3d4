#include "fl/network.h"

#include "core/check.h"

namespace fedda::fl {

std::vector<RoundTiming> SimulateTiming(const FlRunResult& result,
                                        const NetworkModel& model,
                                        int local_epochs) {
  FEDDA_CHECK_GT(local_epochs, 0);
  FEDDA_CHECK_GT(model.uplink_bytes_per_sec, 0.0);
  FEDDA_CHECK_GT(model.downlink_bytes_per_sec, 0.0);
  // Semi-async runs measure their network time while they run (the event
  // queue charges these same NetworkModel constants to produce
  // RoundRecord::virtual_time_sec); re-estimating it here would count
  // every transfer twice. Read the measured virtual_time_sec instead.
  FEDDA_CHECK(result.aggregation_mode != AggregationMode::kSemiAsync)
      << "SimulateTiming on a semi-async run double-counts network time: "
         "the history already records measured virtual_time_sec per round";

  std::vector<RoundTiming> timings;
  timings.reserve(result.history.size());
  double cumulative = 0.0;
  for (const RoundRecord& record : result.history) {
    double round_sec = model.round_latency_sec;
    if (record.participants > 0) {
      // Charge the straggler's measured wire bytes in each direction. A
      // zero downlink is genuine (every participant's cache was current),
      // not missing data. A round nobody took part in (all failed, or never
      // populated) trained and transmitted nothing: latency only.
      round_sec += static_cast<double>(local_epochs) *
                   model.compute_sec_per_epoch;
      round_sec += static_cast<double>(record.max_downlink_bytes) /
                   model.downlink_bytes_per_sec;
      round_sec += static_cast<double>(record.max_uplink_bytes) /
                   model.uplink_bytes_per_sec;
    }
    cumulative += round_sec;
    timings.push_back(RoundTiming{round_sec, cumulative});
  }
  return timings;
}

double TimeToAccuracy(const FlRunResult& result,
                      const std::vector<RoundTiming>& timing,
                      double target_auc) {
  FEDDA_CHECK_EQ(result.history.size(), timing.size());
  for (size_t t = 0; t < result.history.size(); ++t) {
    if (result.history[t].auc >= target_auc) {
      return timing[t].cumulative_sec;
    }
  }
  return -1.0;
}

}  // namespace fedda::fl
