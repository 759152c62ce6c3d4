#include "perfbench/selftime.h"

#include <algorithm>
#include <cstdint>
#include <set>

namespace fedda::perfbench {
namespace {

/// A stretch of one thread's time during which `span` is its innermost
/// open span.
struct Segment {
  int64_t begin = 0;
  int64_t end = 0;
  int tid = 0;
  size_t span = 0;
};

/// Per-thread innermost-span segments. Spans of one thread are RAII scopes,
/// so they are nested or disjoint; sorting by (start, depth) visits a parent
/// before its children and a stack recovers the nesting.
std::vector<Segment> InnermostSegments(const std::vector<obs::Span>& spans) {
  std::map<int, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_thread[spans[i].tid].push_back(i);
  }
  std::vector<Segment> out;
  for (auto& [tid, ids] : by_thread) {
    std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      return spans[a].depth < spans[b].depth;
    });
    auto end_of = [&](size_t i) { return spans[i].start_ns + spans[i].dur_ns; };
    auto emit = [&, thread = tid](size_t span, int64_t begin, int64_t end) {
      if (end > begin) out.push_back(Segment{begin, end, thread, span});
    };
    std::vector<size_t> stack;
    int64_t cursor = 0;
    auto pop_until = [&](int64_t t) {
      while (!stack.empty() && end_of(stack.back()) <= t) {
        emit(stack.back(), cursor, end_of(stack.back()));
        cursor = std::max(cursor, end_of(stack.back()));
        stack.pop_back();
      }
    };
    for (size_t i : ids) {
      pop_until(spans[i].start_ns);
      if (!stack.empty()) emit(stack.back(), cursor, spans[i].start_ns);
      cursor = spans[i].start_ns;
      stack.push_back(i);
    }
    pop_until(INT64_MAX);
  }
  return out;
}

}  // namespace

SelfTimes ComputeSelfTimes(const std::vector<obs::Span>& spans,
                           const std::string& window) {
  SelfTimes self;
  const std::vector<Segment> segments = InnermostSegments(spans);

  // Sweep every segment boundary and window boundary in time order. Between
  // two consecutive boundaries the set of running segments is constant; its
  // wall time is split evenly among them if a window is open.
  struct Boundary {
    int64_t t;
    int kind;  // 0 = segment closes, 1 = window closes, 2 = window opens,
               // 3 = segment opens (closes sort before opens at equal t)
    size_t index;
  };
  std::vector<Boundary> boundaries;
  boundaries.reserve(2 * segments.size());
  for (size_t s = 0; s < segments.size(); ++s) {
    boundaries.push_back({segments[s].begin, 3, s});
    boundaries.push_back({segments[s].end, 0, s});
  }
  for (const obs::Span& span : spans) {
    if (span.name == nullptr || window != span.name) continue;
    boundaries.push_back({span.start_ns, 2, 0});
    boundaries.push_back({span.start_ns + span.dur_ns, 1, 0});
    self.window_seconds += 1e-9 * static_cast<double>(span.dur_ns);
    ++self.windows;
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.kind < b.kind;
            });

  std::vector<double> ns_by_span(spans.size(), 0.0);
  std::set<size_t> running;  // segment indices
  int open_windows = 0;
  int64_t last = boundaries.empty() ? 0 : boundaries.front().t;
  for (const Boundary& b : boundaries) {
    const int64_t dt = b.t - last;
    if (dt > 0 && open_windows > 0 && !running.empty()) {
      const double share =
          static_cast<double>(dt) / static_cast<double>(running.size());
      for (size_t s : running) ns_by_span[segments[s].span] += share;
    }
    last = b.t;
    switch (b.kind) {
      case 0: running.erase(b.index); break;
      case 1: --open_windows; break;
      case 2: ++open_windows; break;
      default: running.insert(b.index); break;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (ns_by_span[i] == 0.0) continue;
    const std::string name = spans[i].name == nullptr ? "" : spans[i].name;
    self.seconds[name] += 1e-9 * ns_by_span[i];
  }
  return self;
}

const std::vector<LayerRow>& Layers() {
  static const std::vector<LayerRow> kLayers = {
      {"tensor.matmul_s", {"matmul"}},
      {"tensor.gather_rows_s", {"gather-rows"}},
      {"tensor.scatter_add_rows_s", {"scatter-add-rows"}},
      {"tensor.segment_softmax_s", {"segment-softmax"}},
      {"tensor.backward_s", {"backward"}},
      {"hgn.encode_s", {"hgn-encode"}},
      {"fl.client_update_s", {"client-update"}},
      {"fl.wire_encode_s", {"wire-encode"}},
      {"fl.aggregate_s", {"aggregate"}},
      {"fl.mask_update_s", {"mask-update"}},
      {"fl.event_schedule_s", {"event-schedule"}},
      {"fl.eval_s", {"eval"}},
      {"net.execute_round_s", {"execute-round"}},
      {"fl.wire.deserialize_us", {"ingest.deserialize"}, true},
      {"fl.wire.apply_us", {"ingest.apply"}, true},
      {"fl.aggregator.accumulate_us", {"ingest.accumulate"}, true},
      {"fl.aggregator.finalize_us", {"ingest.finalize"}},
      {"fl.activation.update_us", {"ingest.activation"}},
      {"fl.wire.downlink_us", {"ingest.downlink"}},
  };
  return kLayers;
}

std::vector<std::pair<std::string, double>> LayerSecondsPerWindow(
    const SelfTimes& self, const std::vector<LayerRow>& layers) {
  const double windows = self.windows > 0 ? self.windows : 1;
  std::vector<std::pair<std::string, double>> rows;
  std::set<std::string> listed;
  for (const LayerRow& layer : layers) {
    double seconds = 0.0;
    for (const std::string& span : layer.spans) {
      listed.insert(span);
      const auto it = self.seconds.find(span);
      if (it != self.seconds.end()) seconds += it->second;
    }
    rows.emplace_back(layer.metric, seconds / windows);
  }
  double unattributed = 0.0;
  for (const auto& [name, seconds] : self.seconds) {
    if (listed.count(name) == 0) unattributed += seconds;
  }
  rows.emplace_back("unattributed_s", unattributed / windows);
  return rows;
}

}  // namespace fedda::perfbench
