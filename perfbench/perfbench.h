#ifndef FEDDA_PERFBENCH_PERFBENCH_H_
#define FEDDA_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "perfbench/selftime.h"

namespace fedda::perfbench {

/// Monotonic wall-clock seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one repetition of a workload measured: a fresh set-up followed by a
/// fixed number of rounds, with its outputs checked.
struct Repetition {
  /// The repetition's seed: it drives model initialization and every
  /// training, sampling and synthetic-update stream.
  uint64_t seed = 0;
  /// Set-up seconds; a workload whose set-up is cheap samples it repeatedly.
  std::vector<double> setup_sec;
  /// Wall seconds and aggregated updates of each round, observed from
  /// outside the runner (an evaluator hook or a timing transport).
  std::vector<double> round_sec;
  std::vector<int> round_updates;
  int64_t updates_attempted = 0;
  int64_t updates_failed = 0;
  /// Measured fl/wire.h payload bytes in each direction.
  int64_t up_bytes = 0;
  int64_t down_bytes = 0;
  /// Output checks that failed (empty = correct).
  std::vector<std::string> failures;

  /// Link-prediction workloads: last-round AUC and the 1-based index of the
  /// first round whose AUC reached the workload's target (-1 = never).
  double final_auc = 0.0;
  int target_round = -1;
  std::vector<double> round_auc;

  /// Socket transport only: frame bytes and frames moved during the rounds,
  /// and each reply's measured round-trip time.
  int64_t wire_bytes = 0;
  int64_t frames = 0;
  std::vector<double> rtt_sec;

  /// VmHWM of this (the server) process over the repetition, in MB.
  double peak_rss_mb = 0.0;

  /// Process resources over the timed rounds.
  double run_wall_sec = 0.0;
  double run_cpu_sec = 0.0;
  int64_t minor_faults = 0;
  int64_t csr_hits = 0;
  int64_t csr_misses = 0;

  /// Traced repetitions only: self times inside the "round" spans.
  SelfTimes self;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed work for the repetitions with `seed`, such as a reference
  /// result to check them against. Called for every seed of a run before
  /// its first repetition starts.
  virtual void Prepare(uint64_t /*seed*/) {}

  /// Sets the system up from scratch, runs every round with `seed`, checks
  /// the outputs. `tracer` is null for end-to-end measurement.
  virtual Repetition Run(obs::Tracer* tracer, uint64_t seed) = 0;

  /// Threads kept busy during a round (core.cpu_util's denominator).
  virtual int busy_threads() const { return 1; }

  /// Target AUC for time_to_auc_s; 0 when the workload does not train.
  virtual double target_auc() const { return 0.0; }
};

/// Builds workload `name`; `scratch_dir` holds its sockets. Returns null
/// for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir);

/// Entry point of a uds-fedda-remote client process (--role client).
int RunRemoteClient(uint64_t seed, int client_id, const std::string& address);

}  // namespace fedda::perfbench

#endif  // FEDDA_PERFBENCH_PERFBENCH_H_
