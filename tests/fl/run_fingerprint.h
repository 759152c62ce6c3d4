#ifndef FEDDA_TESTS_FL_RUN_FINGERPRINT_H_
#define FEDDA_TESTS_FL_RUN_FINGERPRINT_H_

// Fingerprints of seeded federated runs, shared by the pin suites. A
// fingerprint hashes the %.17g rendering of every RoundRecord field, every
// FlRunResult total and every event, so any change to what a round
// computes, charges or records changes it. %.17g round-trips doubles, so
// equal renderings mean bit-equal values.

#include <cstdint>
#include <string>

#include "core/string_util.h"
#include "fl/experiment.h"
#include "net/transport.h"

namespace fedda::fl::testing {

/// Every field the run produced, one line per record and per event.
inline std::string RenderRun(const FlRunResult& result) {
  std::string out = core::StrFormat(
      "mode=%d final_auc=%.17g final_mrr=%.17g up_groups=%lld "
      "up_scalars=%lld max_up_scalars=%lld up_bytes=%lld down_bytes=%lld "
      "down_scalars=%lld max_down_scalars=%lld\n",
      static_cast<int>(result.aggregation_mode), result.final_auc,
      result.final_mrr, static_cast<long long>(result.total_uplink_groups),
      static_cast<long long>(result.total_uplink_scalars),
      static_cast<long long>(result.total_max_uplink_scalars),
      static_cast<long long>(result.total_uplink_bytes),
      static_cast<long long>(result.total_downlink_bytes),
      static_cast<long long>(result.total_downlink_scalars),
      static_cast<long long>(result.total_max_downlink_scalars));
  for (const RoundRecord& r : result.history) {
    out += core::StrFormat(
        "round=%d auc=%.17g mrr=%.17g loss=%.17g participants=%d "
        "up_groups=%lld up_scalars=%lld max_up_scalars=%lld up_bytes=%lld "
        "max_up_bytes=%lld down_scalars=%lld max_down_scalars=%lld "
        "down_bytes=%lld max_down_bytes=%lld active=%d started=%d "
        "departures=%d staleness=%.17g vtime=%.17g forced=%d\n",
        r.round, r.auc, r.mrr, r.mean_local_loss, r.participants,
        static_cast<long long>(r.uplink_groups),
        static_cast<long long>(r.uplink_scalars),
        static_cast<long long>(r.max_uplink_scalars),
        static_cast<long long>(r.uplink_bytes),
        static_cast<long long>(r.max_uplink_bytes),
        static_cast<long long>(r.downlink_scalars),
        static_cast<long long>(r.max_downlink_scalars),
        static_cast<long long>(r.downlink_bytes),
        static_cast<long long>(r.max_downlink_bytes), r.active_after_round,
        r.started, r.departures, r.mean_staleness, r.virtual_time_sec,
        r.forced_reactivation ? 1 : 0);
  }
  for (const Event& e : result.events) {
    out += core::StrFormat(
        "event time=%.17g kind=%d client=%d round=%d seq=%llu\n", e.time,
        static_cast<int>(e.kind), e.client, e.round,
        static_cast<unsigned long long>(e.seq));
  }
  return out;
}

inline uint64_t RunFingerprint(const FlRunResult& result) {
  return net::Fingerprint64(RenderRun(result));
}

}  // namespace fedda::fl::testing

#endif  // FEDDA_TESTS_FL_RUN_FINGERPRINT_H_
