#ifndef FEDDA_PERFBENCH_SELFTIME_H_
#define FEDDA_PERFBENCH_SELFTIME_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace fedda::perfbench {

/// Wall time inside the window spans, split among the spans that were
/// running at each instant.
struct SelfTimes {
  /// Seconds attributed to each span name.
  std::map<std::string, double> seconds;
  /// Summed duration of the window spans, and how many there were.
  double window_seconds = 0.0;
  int windows = 0;
};

/// Computes each span's self time from a Tracer::Collect() list.
///
/// Spans nest by (tid, depth): on one thread, a span's self time is its
/// duration minus the part its child spans cover, so at every instant each
/// thread is "in" at most one span, its innermost open one. When several
/// threads are inside spans at the same instant, that instant's wall time is
/// split evenly among them, so a pool of workers running kernels under the
/// coordinator's span shares the wall time instead of multiplying it.
///
/// Only instants inside a span named `window` (the runner's "round") count,
/// so the attributed seconds of all names sum to `window_seconds`. Windows
/// must not overlap each other.
SelfTimes ComputeSelfTimes(const std::vector<obs::Span>& spans,
                           const std::string& window);

/// One per-layer row: a benchmark metric fed by one or more span names.
struct LayerRow {
  std::string metric;
  std::vector<std::string> spans;
  /// Rows named *_us are reported in microseconds per update (true) or per
  /// round (false); all others in seconds per round.
  bool per_update = false;
};

/// The span-name -> layer-metric table: the runner's and the tensor
/// library's spans, the benchmark's "execute-round" span around
/// fl::Transport::ExecuteRound, and the benchmark's "ingest.*" spans around
/// the server-ingest calls. Spans listed nowhere (round, local-train, run)
/// are unattributed.
const std::vector<LayerRow>& Layers();

/// Per-window seconds of each row in `layers`, in order, followed by
/// "unattributed_s": the window time no listed span accounts for. The values
/// sum to window_seconds / windows.
std::vector<std::pair<std::string, double>> LayerSecondsPerWindow(
    const SelfTimes& self, const std::vector<LayerRow>& layers);

}  // namespace fedda::perfbench

#endif  // FEDDA_PERFBENCH_SELFTIME_H_
