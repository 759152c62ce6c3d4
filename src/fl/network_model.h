#ifndef FEDDA_FL_NETWORK_MODEL_H_
#define FEDDA_FL_NETWORK_MODEL_H_

namespace fedda::fl {

/// Simulated communication/compute constants shared by the post-hoc timing
/// estimate (fl/network.h SimulateTiming) and the semi-async runner's
/// event-time source (fl/runner.h SemiAsyncOptions): both must charge the
/// same model so "simulated seconds" mean the same thing everywhere.
struct NetworkModel {
  /// Client uplink bandwidth (the FL bottleneck in practice).
  double uplink_bytes_per_sec = 1.0e6;
  /// Client downlink bandwidth (requested-group broadcast).
  double downlink_bytes_per_sec = 4.0e6;
  /// Fixed per-round overhead: handshakes, scheduling, aggregation.
  double round_latency_sec = 0.1;
  /// Local compute time per client per local epoch.
  double compute_sec_per_epoch = 0.5;
};

}  // namespace fedda::fl

#endif  // FEDDA_FL_NETWORK_MODEL_H_
