// Tracing must be a pure observer: attaching a Tracer / MetricsRegistry to a
// seeded run may not change a single bit of its results, with or without the
// worker pool. Also validates that the spans a real federated run produces
// are well-formed: properly nested per thread and exportable as structurally
// sound Chrome trace JSON.

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/string_util.h"
#include "fl/experiment.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fedda::fl {
namespace {

SystemConfig TraceSystemConfig() {
  SystemConfig config;
  config.data = data::AmazonSpec(0.012);
  config.test_fraction = 0.2;
  config.partition.num_clients = 4;
  config.partition.num_specialties = 1;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.hidden_dim = 8;
  config.model.edge_emb_dim = 4;
  config.seed = 41;
  return config;
}

FlOptions TraceOptions(FlAlgorithm algorithm, int worker_threads) {
  FlOptions options;
  options.algorithm = algorithm;
  options.rounds = 3;
  options.local.local_epochs = 1;
  options.eval.max_edges = 128;
  options.eval.mrr_negatives = 5;
  options.worker_threads = worker_threads;
  return options;
}

/// Bitwise equality of two run results, every RoundRecord field included.
/// Doubles compared through %.17g strings so a failure message shows the
/// exact values.
void ExpectIdenticalResults(const FlRunResult& a, const FlRunResult& b) {
  auto d = [](double x) { return core::StrFormat("%.17g", x); };
  EXPECT_EQ(d(a.final_auc), d(b.final_auc));
  EXPECT_EQ(d(a.final_mrr), d(b.final_mrr));
  EXPECT_EQ(a.total_uplink_groups, b.total_uplink_groups);
  EXPECT_EQ(a.total_uplink_scalars, b.total_uplink_scalars);
  EXPECT_EQ(a.total_max_uplink_scalars, b.total_max_uplink_scalars);
  EXPECT_EQ(a.total_uplink_bytes, b.total_uplink_bytes);
  EXPECT_EQ(a.total_downlink_bytes, b.total_downlink_bytes);
  EXPECT_EQ(a.total_downlink_scalars, b.total_downlink_scalars);
  EXPECT_EQ(a.total_max_downlink_scalars, b.total_max_downlink_scalars);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history[i];
    const RoundRecord& rb = b.history[i];
    EXPECT_EQ(ra.round, rb.round) << "round " << i;
    EXPECT_EQ(d(ra.auc), d(rb.auc)) << "round " << i;
    EXPECT_EQ(d(ra.mrr), d(rb.mrr)) << "round " << i;
    EXPECT_EQ(d(ra.mean_local_loss), d(rb.mean_local_loss)) << "round " << i;
    EXPECT_EQ(ra.participants, rb.participants) << "round " << i;
    EXPECT_EQ(ra.uplink_groups, rb.uplink_groups) << "round " << i;
    EXPECT_EQ(ra.uplink_scalars, rb.uplink_scalars) << "round " << i;
    EXPECT_EQ(ra.max_uplink_scalars, rb.max_uplink_scalars) << "round " << i;
    EXPECT_EQ(ra.uplink_bytes, rb.uplink_bytes) << "round " << i;
    EXPECT_EQ(ra.downlink_bytes, rb.downlink_bytes) << "round " << i;
    EXPECT_EQ(ra.downlink_scalars, rb.downlink_scalars) << "round " << i;
    EXPECT_EQ(ra.active_after_round, rb.active_after_round) << "round " << i;
  }
}

TEST(TraceDeterminismTest, TracedRunIsBitIdenticalSequential) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  FlOptions plain = TraceOptions(FlAlgorithm::kFedDaRestart, 0);
  const FlRunResult untraced = RunFederated(system, plain, 123);

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  FlOptions traced_options = plain;
  traced_options.tracer = &tracer;
  traced_options.metrics = &registry;
  const FlRunResult traced = RunFederated(system, traced_options, 123);

  ExpectIdenticalResults(untraced, traced);
  // The tracer actually observed the run (not silently disconnected).
  EXPECT_GT(tracer.Collect().size(), 0u);
}

TEST(TraceDeterminismTest, TracedRunIsBitIdenticalWithFourWorkers) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  FlOptions plain = TraceOptions(FlAlgorithm::kFedAvg, 4);
  const FlRunResult untraced = RunFederated(system, plain, 123);

  obs::Tracer tracer;
  FlOptions traced_options = plain;
  traced_options.tracer = &tracer;
  const FlRunResult traced = RunFederated(system, traced_options, 123);

  ExpectIdenticalResults(untraced, traced);
}

TEST(TraceDeterminismTest, SpansNestProperlyUnderFourWorkers) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  obs::Tracer tracer;
  FlOptions options = TraceOptions(FlAlgorithm::kFedDaRestart, 4);
  options.tracer = &tracer;
  const FlRunResult result = RunFederated(system, options, 123);
  ASSERT_EQ(result.history.size(), 3u);

  const std::vector<obs::Span> spans = tracer.Collect();
  ASSERT_GT(spans.size(), 0u);

  // Per thread, any two closed spans are either disjoint or strictly
  // nested, and a deeper span starting inside a shallower one ends inside
  // it too. This is the invariant Chrome's trace viewer relies on.
  std::map<int, std::vector<obs::Span>> by_tid;
  for (const obs::Span& span : spans) {
    EXPECT_GE(span.dur_ns, 0);
    by_tid[span.tid].push_back(span);
  }
  // Note: the pool's caller participates in ParallelFor, so on a loaded
  // single-core machine every client-update may land on the main thread —
  // the number of distinct tids is >= 1, not necessarily > 1.
  EXPECT_GE(by_tid.size(), 1u);
  for (const auto& [tid, thread_spans] : by_tid) {
    for (size_t i = 0; i < thread_spans.size(); ++i) {
      for (size_t j = i + 1; j < thread_spans.size(); ++j) {
        const obs::Span& a = thread_spans[i];
        const obs::Span& b = thread_spans[j];
        const int64_t a_end = a.start_ns + a.dur_ns;
        const int64_t b_end = b.start_ns + b.dur_ns;
        const bool disjoint = a_end <= b.start_ns || b_end <= a.start_ns;
        const bool a_holds_b = a.start_ns <= b.start_ns && b_end <= a_end;
        const bool b_holds_a = b.start_ns <= a.start_ns && a_end <= b_end;
        EXPECT_TRUE(disjoint || a_holds_b || b_holds_a)
            << "tid " << tid << ": spans '" << a.name << "' and '" << b.name
            << "' partially overlap";
      }
    }
  }

  // The runner's taxonomy showed up: run -> round -> phases, plus
  // client-update work on the pool and kernel spans below it.
  std::map<std::string, int> counts;
  for (const obs::Span& span : spans) ++counts[span.name];
  EXPECT_EQ(counts["run"], 1);
  EXPECT_EQ(counts["round"], 3);
  EXPECT_EQ(counts["local-train"], 3);
  EXPECT_EQ(counts["wire-encode"], 3);
  EXPECT_EQ(counts["aggregate"], 3);
  EXPECT_EQ(counts["mask-update"], 3);
  EXPECT_EQ(counts["eval"], 3);
  int total_participants = 0;
  for (const RoundRecord& r : result.history) {
    total_participants += r.participants;
  }
  EXPECT_EQ(counts["client-update"], total_participants);
  EXPECT_GT(counts["hgn-encode"], 0);
  EXPECT_GT(counts["matmul"], 0);
  EXPECT_GT(counts["backward"], 0);

  // The exported JSON is structurally sound Chrome trace_event output.
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  size_t events = 0;
  for (size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       pos += std::strlen("\"ph\":\"X\"")) {
    ++events;
  }
  EXPECT_EQ(events, spans.size());
}

TEST(TraceDeterminismTest, MetricsMirrorRunTotals) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  obs::MetricsRegistry registry;
  FlOptions options = TraceOptions(FlAlgorithm::kFedDaRestart, 0);
  options.metrics = &registry;
  const FlRunResult result = RunFederated(system, options, 123);

  int64_t participants = 0;
  for (const RoundRecord& r : result.history) participants += r.participants;
  EXPECT_EQ(registry.AddCounter("fl.rounds")->value(),
            static_cast<int64_t>(result.history.size()));
  EXPECT_EQ(registry.AddCounter("fl.participants")->value(), participants);
  EXPECT_EQ(registry.AddCounter("fl.uplink_bytes")->value(),
            result.total_uplink_bytes);
  EXPECT_EQ(registry.AddCounter("fl.downlink_bytes")->value(),
            result.total_downlink_bytes);
  EXPECT_EQ(registry.AddCounter("fl.uplink_scalars")->value(),
            result.total_uplink_scalars);
  EXPECT_EQ(registry.AddCounter("fl.downlink_scalars")->value(),
            result.total_downlink_scalars);
}

/// Semi-async options with a 4x straggler (client 3) and a buffer of two,
/// so updates land stale and events interleave across rounds.
FlOptions SemiAsyncTraceOptions(FlAlgorithm algorithm, int worker_threads) {
  FlOptions options = TraceOptions(algorithm, worker_threads);
  options.rounds = 6;
  options.aggregation_mode = AggregationMode::kSemiAsync;
  options.semi_async.buffer_size = 2;
  options.semi_async.client_speed = {1.0, 1.0, 1.0, 4.0};
  return options;
}

/// The semi-async half of a result: every event in pop order, and the
/// per-round fields only an event-driven run fills in.
void ExpectIdenticalSchedules(const FlRunResult& a, const FlRunResult& b) {
  auto d = [](double x) { return core::StrFormat("%.17g", x); };
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(d(a.events[i].time), d(b.events[i].time)) << "event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].client, b.events[i].client) << "event " << i;
    EXPECT_EQ(a.events[i].round, b.events[i].round) << "event " << i;
    EXPECT_EQ(a.events[i].seq, b.events[i].seq) << "event " << i;
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    const RoundRecord& ra = a.history[i];
    const RoundRecord& rb = b.history[i];
    EXPECT_EQ(ra.started, rb.started) << "round " << i;
    EXPECT_EQ(ra.departures, rb.departures) << "round " << i;
    EXPECT_EQ(d(ra.mean_staleness), d(rb.mean_staleness)) << "round " << i;
    EXPECT_EQ(d(ra.virtual_time_sec), d(rb.virtual_time_sec))
        << "round " << i;
    EXPECT_EQ(ra.forced_reactivation, rb.forced_reactivation)
        << "round " << i;
  }
}

TEST(TraceDeterminismTest, SemiAsyncTracedRunWithFailuresIsBitIdentical) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  FlOptions plain = SemiAsyncTraceOptions(FlAlgorithm::kFedDaRestart, 3);
  plain.client_failure_prob = 0.3;
  const FlRunResult untraced = RunFederated(system, plain, 123);

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  FlOptions traced_options = plain;
  traced_options.tracer = &tracer;
  traced_options.metrics = &registry;
  const FlRunResult traced = RunFederated(system, traced_options, 123);

  ExpectIdenticalResults(untraced, traced);
  ExpectIdenticalSchedules(untraced, traced);
  int departures = 0;
  for (const RoundRecord& r : traced.history) departures += r.departures;
  EXPECT_GT(departures, 0) << "the run never exercised a departure";
  EXPECT_GT(tracer.Collect().size(), 0u);
}

/// fl.departures and fl.forced_reactivations agree with the records. Scalar
/// masks with alpha = 1 deactivate every aggregated client and beta_r = 0
/// never restarts, so the server has to force reactivations.
void ExpectCountersMatchRecords(FlOptions options) {
  const FederatedSystem system = FederatedSystem::Build(TraceSystemConfig());
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  options.client_failure_prob = 0.3;
  options.activation.granularity = ActivationGranularity::kScalar;
  options.activation.alpha = 1.0;
  options.beta_r = 0.0;
  const FlRunResult result = RunFederated(system, options, 123);

  int64_t departures = 0;
  int64_t forced = 0;
  for (const RoundRecord& r : result.history) {
    departures += r.departures;
    forced += r.forced_reactivation ? 1 : 0;
  }
  EXPECT_GT(forced, 0) << "the run never forced a reactivation";
  EXPECT_EQ(registry.AddCounter("fl.departures")->value(), departures);
  EXPECT_EQ(registry.AddCounter("fl.forced_reactivations")->value(), forced);
  if (options.aggregation_mode == AggregationMode::kSemiAsync) {
    EXPECT_GT(departures, 0) << "the run never exercised a departure";
  }
}

TEST(TraceDeterminismTest, SyncCountersMatchDeparturesAndForcedRounds) {
  FlOptions options = TraceOptions(FlAlgorithm::kFedDaRestart, 0);
  options.rounds = 5;
  ExpectCountersMatchRecords(options);
}

TEST(TraceDeterminismTest, SemiAsyncCountersMatchDeparturesAndForcedRounds) {
  ExpectCountersMatchRecords(
      SemiAsyncTraceOptions(FlAlgorithm::kFedDaRestart, 0));
}

}  // namespace
}  // namespace fedda::fl
