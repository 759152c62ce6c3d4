// Unit tests for the benchmark's self-time subtraction, on hand-built span
// lists. Exits 0 when every check passes; prints each failure otherwise.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/selftime.h"

namespace {

using fedda::obs::Span;
using fedda::perfbench::ComputeSelfTimes;
using fedda::perfbench::LayerSecondsPerWindow;
using fedda::perfbench::Layers;
using fedda::perfbench::SelfTimes;

int failures = 0;

void ExpectNear(const std::string& what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::printf("FAIL %s: got %.15g, want %.15g\n", what.c_str(), got, want);
    ++failures;
  }
}

/// Times in the span lists below are in microseconds for readability.
Span MakeSpan(const char* name, int tid, int depth, int64_t start_us,
              int64_t end_us) {
  Span span;
  span.name = name;
  span.tid = tid;
  span.depth = depth;
  span.start_ns = start_us * 1000;
  span.dur_ns = (end_us - start_us) * 1000;
  return span;
}

double Seconds(const SelfTimes& self, const std::string& name) {
  const auto it = self.seconds.find(name);
  return it == self.seconds.end() ? 0.0 : it->second;
}

double SumOfRows(const SelfTimes& self) {
  double sum = 0.0;
  for (const auto& [metric, seconds] :
       LayerSecondsPerWindow(self, Layers())) {
    sum += seconds;
  }
  return sum;
}

void TestNestedSingleThread() {
  // round [0,100) > client-update [10,40) > matmul [20,30); eval [50,60).
  const std::vector<Span> spans = {
      MakeSpan("round", 0, 0, 0, 100),
      MakeSpan("client-update", 0, 1, 10, 40),
      MakeSpan("matmul", 0, 2, 20, 30),
      MakeSpan("eval", 0, 1, 50, 60),
  };
  const SelfTimes self = ComputeSelfTimes(spans, "round");
  ExpectNear("nested round", Seconds(self, "round"), 60e-6);
  ExpectNear("nested client-update", Seconds(self, "client-update"), 20e-6);
  ExpectNear("nested matmul", Seconds(self, "matmul"), 10e-6);
  ExpectNear("nested eval", Seconds(self, "eval"), 10e-6);
  ExpectNear("nested window", self.window_seconds, 100e-6);
  ExpectNear("nested rows add up", SumOfRows(self), 100e-6);
}

void TestChildStartsWithParent() {
  // Children sharing the parent's start and end instants.
  const std::vector<Span> spans = {
      MakeSpan("matmul", 0, 2, 0, 5),
      MakeSpan("round", 0, 0, 0, 20),
      MakeSpan("aggregate", 0, 1, 0, 20),
  };
  const SelfTimes self = ComputeSelfTimes(spans, "round");
  ExpectNear("shared-edge aggregate", Seconds(self, "aggregate"), 15e-6);
  ExpectNear("shared-edge matmul", Seconds(self, "matmul"), 5e-6);
  ExpectNear("shared-edge round", Seconds(self, "round"), 0.0);
  ExpectNear("shared-edge rows add up", SumOfRows(self), 20e-6);
}

void TestWorkersShareWallTime() {
  // The coordinator waits in local-train while a worker runs a client
  // update for the first half: that half is split between the two threads.
  const std::vector<Span> spans = {
      MakeSpan("round", 0, 0, 0, 100),
      MakeSpan("local-train", 0, 1, 0, 100),
      MakeSpan("client-update", 1, 0, 0, 50),
      MakeSpan("matmul", 1, 1, 0, 20),
      MakeSpan("client-update", 2, 0, 40, 120),  // runs past the window
  };
  const SelfTimes self = ComputeSelfTimes(spans, "round");
  // [0,20): local-train, matmul.  [20,40): local-train, update(1).
  // [40,50): local-train, update(1), update(2).  [50,100): local-train,
  // update(2).  [100,120): outside the window.
  ExpectNear("workers local-train", Seconds(self, "local-train"),
             (10 + 10 + 10.0 / 3 + 25) * 1e-6);
  ExpectNear("workers matmul", Seconds(self, "matmul"), 10e-6);
  ExpectNear("workers client-update", Seconds(self, "client-update"),
             (10 + 2 * 10.0 / 3 + 25) * 1e-6);
  ExpectNear("workers rows add up", SumOfRows(self), 100e-6);
}

void TestTwoWindowsPerWindowRows() {
  // Two rounds, spans outside any round ignored, rows are per round.
  const std::vector<Span> spans = {
      MakeSpan("run", 0, 0, 0, 300),
      MakeSpan("round", 0, 1, 0, 100),
      MakeSpan("aggregate", 0, 2, 20, 60),
      MakeSpan("round", 0, 1, 150, 250),
      MakeSpan("aggregate", 0, 2, 150, 170),
      MakeSpan("mask-update", 0, 2, 170, 200),
  };
  const SelfTimes self = ComputeSelfTimes(spans, "round");
  ExpectNear("windows count", self.windows, 2);
  ExpectNear("windows run self", Seconds(self, "run"), 0.0);
  const auto rows = LayerSecondsPerWindow(self, Layers());
  for (const auto& [metric, seconds] : rows) {
    if (metric == "fl.aggregate_s") ExpectNear(metric, seconds, 30e-6);
    if (metric == "fl.mask_update_s") ExpectNear(metric, seconds, 15e-6);
    if (metric == "unattributed_s") ExpectNear(metric, seconds, 55e-6);
    if (metric == "tensor.matmul_s") ExpectNear(metric, seconds, 0.0);
  }
  ExpectNear("windows rows add up", SumOfRows(self), 100e-6);
}

}  // namespace

int main() {
  TestNestedSingleThread();
  TestChildStartsWithParent();
  TestWorkersShareWallTime();
  TestTwoWindowsPerWindowRows();
  if (failures > 0) {
    std::printf("%d self-time check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftime_test: all checks passed\n");
  return 0;
}
