// FedDA benchmark: runs one workload for a fixed wall-clock budget,
// checks its outputs, and prints its metrics. The last line of standard
// output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 it holds the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run. See README.md for every metric.
//
//   fedda_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--scratch_dir <dir>]
//   fedda_perfbench --role client ...   (uds-fedda-remote client processes)

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "tensor/kernels/kernels.h"

namespace fedda::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch_dir = ".";
  std::string role;
  int client_id = -1;
  std::string address;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch_dir") {
      args->scratch_dir = value;
    } else if (key == "--role") {
      args->role = value;
    } else if (key == "--client_id") {
      args->client_id = std::atoi(value.c_str());
    } else if (key == "--address") {
      args->address = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Quantile q in (0, 1) by linear interpolation over the n + 1 gaps (the
/// method of Python's statistics.quantiles, "exclusive").
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() + 1) - 1.0;
  if (position <= 0.0) return values.front();
  if (position >= static_cast<double>(values.size() - 1)) {
    return values.back();
  }
  const size_t lo = static_cast<size_t>(position);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

/// Peak resident set of this (the server) process since the last
/// ResetPeakRss(), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Lowers VmHWM to the current resident set (Linux clear_refs value 5).
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string EnvOrUnset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "(unset)" : value;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every run cycles through the same kStreams training streams; repetition
/// i of a run with --seed s uses stream (s + i) % kStreams, whose seed is
/// StreamSeed(). Per-round work depends on the stream's activation schedule
/// (by up to 40% on server-ingest), so a fixed set of streams keeps the
/// measured work the same from run to run.
constexpr int kStreams = 8;

uint64_t StreamSeed(uint64_t run_seed, int repetition) {
  return 1000 + (run_seed + static_cast<uint64_t>(repetition)) % kStreams;
}

/// Runs repetitions of `workload` until `budget` seconds have passed (at
/// least one, and none that would likely end far past the budget), counting
/// repetitions on from `*next`. Each traced repetition gets a fresh tracer.
/// Stops at the first failed check.
void RunFor(Workload* workload, uint64_t seed, double budget, bool traced,
            int* next, std::vector<Repetition>* reps) {
  const double start = Now();
  double last = 0.0;
  do {
    std::unique_ptr<obs::Tracer> tracer;
    if (traced) tracer = std::make_unique<obs::Tracer>();
    ResetPeakRss();
    const double t0 = Now();
    reps->push_back(workload->Run(tracer.get(), StreamSeed(seed, (*next)++)));
    last = Now() - t0;
    reps->back().peak_rss_mb = PeakRssMb();
    // Hand freed heap back to the OS between repetitions, as a fresh
    // process per repetition would start, so each repetition's peak
    // measures its own footprint rather than allocator leftovers.
    tracer.reset();
    malloc_trim(0);
    if (!reps->back().failures.empty()) return;
  } while (Now() - start + 0.5 * last < budget);
}

struct Pooled {
  std::vector<double> setup_sec;
  std::vector<double> round_sec;
  /// Per-round samples by training stream (the repetition's seed).
  std::map<uint64_t, std::vector<double>> stream_round_sec;
  std::map<uint64_t, std::vector<double>> stream_updates_per_sec;
  std::vector<double> rtt_sec;
  std::vector<double> peak_rss_mb;
  int64_t rounds = 0;
  int64_t updates = 0;
  int64_t stream_updates = 0;  // in the first repetition of each seed
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t up_bytes = 0;
  int64_t down_bytes = 0;
  int64_t wire_bytes = 0;
  int64_t frames = 0;
  double run_wall_sec = 0.0;
  double run_cpu_sec = 0.0;
  int64_t minor_faults = 0;
  int64_t csr_hits = 0;
  int64_t csr_misses = 0;
  SelfTimes self;
  std::vector<std::string> failures;
};

Pooled Pool(const std::vector<Repetition>& reps) {
  Pooled p;
  // Repetitions with the same seed must reproduce each other exactly.
  std::map<uint64_t, const Repetition*> first_of_seed;
  for (const Repetition& rep : reps) {
    const Repetition* first =
        first_of_seed.emplace(rep.seed, &rep).first->second;
    if (rep.final_auc != first->final_auc || rep.up_bytes != first->up_bytes) {
      p.failures.push_back("repetitions of seed " + std::to_string(rep.seed) +
                           " disagree");
    }
    int64_t updates = 0;
    p.setup_sec.insert(p.setup_sec.end(), rep.setup_sec.begin(),
                       rep.setup_sec.end());
    for (size_t r = 0; r < rep.round_sec.size(); ++r) {
      p.round_sec.push_back(rep.round_sec[r]);
      p.stream_round_sec[rep.seed].push_back(rep.round_sec[r]);
      p.stream_updates_per_sec[rep.seed].push_back(rep.round_updates[r] /
                                                   rep.round_sec[r]);
      updates += rep.round_updates[r];
    }
    p.updates += updates;
    // Payload bytes count each training stream once, so they depend on the
    // seed alone and not on how many repetitions fit in the budget.
    if (first == &rep) {
      p.stream_updates += updates;
      p.up_bytes += rep.up_bytes;
      p.down_bytes += rep.down_bytes;
    }
    p.rounds += static_cast<int64_t>(rep.round_sec.size());
    p.rtt_sec.insert(p.rtt_sec.end(), rep.rtt_sec.begin(), rep.rtt_sec.end());
    p.peak_rss_mb.push_back(rep.peak_rss_mb);
    p.attempted += rep.updates_attempted;
    p.failed += rep.updates_failed;
    p.wire_bytes += rep.wire_bytes;
    p.frames += rep.frames;
    p.run_wall_sec += rep.run_wall_sec;
    p.run_cpu_sec += rep.run_cpu_sec;
    p.minor_faults += rep.minor_faults;
    p.csr_hits += rep.csr_hits;
    p.csr_misses += rep.csr_misses;
    for (const auto& [name, seconds] : rep.self.seconds) {
      p.self.seconds[name] += seconds;
    }
    p.self.window_seconds += rep.self.window_seconds;
    p.self.windows += rep.self.windows;
    p.failures.insert(p.failures.end(), rep.failures.begin(),
                      rep.failures.end());
  }
  return p;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean over training streams of each stream's median sample. Each stream
/// weighs the same however many of its rounds fit in the run, and the mean
/// does not jump between the modes that streams of different per-round work
/// form, as a median of all rounds pooled would.
double StreamMeanOfMedians(
    const std::map<uint64_t, std::vector<double>>& by_stream) {
  double sum = 0.0;
  for (const auto& [stream, samples] : by_stream) sum += Median(samples);
  return Ratio(sum, static_cast<double>(by_stream.size()));
}

std::vector<Metric> EndToEnd(const Pooled& p) {
  return {
      {"setup_s", Median(p.setup_sec), "s"},
      {"round_s", StreamMeanOfMedians(p.stream_round_sec), "s"},
      {"updates_per_s", StreamMeanOfMedians(p.stream_updates_per_sec), "1/s"},
      {"peak_rss_mb", Median(p.peak_rss_mb), "MB"},
      {"up_bytes_per_update", Ratio(p.up_bytes, p.stream_updates), "B"},
      {"down_bytes_per_update", Ratio(p.down_bytes, p.stream_updates), "B"},
  };
}

std::vector<Metric> PerLayer(const Pooled& untraced, const Pooled& traced,
                             int busy_threads) {
  const double traced_round =
      Ratio(traced.self.window_seconds, traced.self.windows);
  std::vector<Metric> out = {{"traced_round_s", traced_round, "s"}};
  const std::vector<std::pair<std::string, double>> rows =
      LayerSecondsPerWindow(traced.self, Layers());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& [metric, seconds] = rows[i];
    if (metric.size() > 3 && metric.compare(metric.size() - 3, 3, "_us") == 0) {
      const bool per_update = Layers()[i].per_update;
      const double per_round_to_unit =
          per_update ? 1e6 * Ratio(traced.self.windows, traced.updates) : 1e6;
      out.push_back({metric, seconds * per_round_to_unit, "us"});
    } else {
      out.push_back({metric, seconds, "s"});
    }
  }
  out.push_back({"tensor.csr_cache_hit_ratio",
                 Ratio(untraced.csr_hits,
                       untraced.csr_hits + untraced.csr_misses),
                 "1"});
  out.push_back({"net.rtt_ms", 1e3 * Median(untraced.rtt_sec), "ms"});
  out.push_back(
      {"net.frames_per_round", Ratio(untraced.frames, untraced.rounds),
       "count"});
  out.push_back({"core.minor_faults_per_round",
                 Ratio(untraced.minor_faults, untraced.rounds), "count"});
  out.push_back({"core.cpu_util",
                 Ratio(untraced.run_cpu_sec,
                       untraced.run_wall_sec * busy_threads),
                 "1"});
  out.push_back({"round_p90_s", Quantile(untraced.round_sec, 0.9), "s"});
  out.push_back({"trace_overhead_ratio",
                 Ratio(StreamMeanOfMedians(traced.stream_round_sec),
                       StreamMeanOfMedians(untraced.stream_round_sec)),
                 "1"});
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buffer;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: fedda_perfbench --workload <name> --seed "
                         "<n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (args.role == "client") {
    return RunRemoteClient(args.seed, args.client_id, args.address);
  }
  if (!(args.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.scratch_dir);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // The host and the settings the program runs under; the benchmark never
  // changes them.
  std::printf(
      "host: {\"nproc\": %ld, \"kernel_path\": \"%s\", \"fusion\": %s, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"GLIBC_TUNABLES\": "
      "\"%s\", \"FEDDA_KERNEL_DISPATCH\": \"%s\", \"FEDDA_KERNEL_FUSION\": "
      "\"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      tensor::kernels::PathName(tensor::kernels::ActivePath()),
      tensor::kernels::FusionEnabled() ? "true" : "false", PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, JsonEscape(EnvOrUnset("GLIBC_TUNABLES")).c_str(),
      JsonEscape(EnvOrUnset("FEDDA_KERNEL_DISPATCH")).c_str(),
      JsonEscape(EnvOrUnset("FEDDA_KERNEL_FUSION")).c_str());

  // End-to-end runs use the whole budget untraced. A traced run spends half
  // untraced (for the overhead ratio and the resource counters) and half
  // with the tracer attached.
  std::vector<Repetition> untraced_reps;
  std::vector<Repetition> traced_reps;
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  for (int i = 0; i < kStreams; ++i) {
    workload->Prepare(StreamSeed(args.seed, i));
  }
  int next = 0;
  RunFor(workload.get(), args.seed, budget, false, &next, &untraced_reps);
  if (args.trace && untraced_reps.back().failures.empty()) {
    RunFor(workload.get(), args.seed, budget, true, &next, &traced_reps);
  }
  const Pooled untraced = Pool(untraced_reps);
  const Pooled traced = Pool(traced_reps);

  std::vector<std::string> failures = untraced.failures;
  failures.insert(failures.end(), traced.failures.begin(),
                  traced.failures.end());
  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed =
      untraced.failed + traced.failed +
      (failures.empty() || untraced.failed + traced.failed > 0 ? 0 : 1);

  std::printf(
      "repetitions: %zu untraced, %zu traced; rounds %lld; set-ups %zu\n",
      untraced_reps.size(), traced_reps.size(),
      static_cast<long long>(untraced.rounds + traced.rounds),
      untraced.setup_sec.size());
  std::printf(
      "round_s per-round quartiles (untraced, n=%zu): %.6f %.6f %.6f, p90 "
      "%.6f\n",
      untraced.round_sec.size(), Quantile(untraced.round_sec, 0.25),
      Quantile(untraced.round_sec, 0.5), Quantile(untraced.round_sec, 0.75),
      Quantile(untraced.round_sec, 0.9));
  for (size_t i = 0; i < untraced_reps.size(); ++i) {
    const std::vector<double>& rounds = untraced_reps[i].round_sec;
    std::printf("  repetition %zu: seed %llu, set-up %.4f s, peak %.1f MB, "
                "round_s quartiles %.6f %.6f %.6f\n",
                i, static_cast<unsigned long long>(untraced_reps[i].seed),
                Median(untraced_reps[i].setup_sec),
                untraced_reps[i].peak_rss_mb, Quantile(rounds, 0.25),
                Quantile(rounds, 0.5), Quantile(rounds, 0.75));
  }

  if (workload->target_auc() > 0.0) {
    std::printf("auc by round:");
    for (const double auc : untraced_reps.front().round_auc) {
      std::printf(" %.4f", auc);
    }
    std::printf("\n");
  }

  // Figures that are printed but not gated: they do not apply to every
  // workload (see README.md).
  const Repetition& first = untraced_reps.front();
  std::vector<Metric> info = {
      {"updates_attempted", static_cast<double>(attempted), "count"},
      {"updates_failed", static_cast<double>(failed), "count"},
  };
  if (workload->target_auc() > 0.0) {
    info.push_back({"final_auc", first.final_auc, "1"});
    info.push_back({"time_to_auc_s",
                    first.target_round > 0
                        ? StreamMeanOfMedians(untraced.stream_round_sec) *
                              first.target_round
                        : -1.0,
                    "s"});
    info.push_back({"auc_target", workload->target_auc(), "1"});
  } else if (first.final_auc > 0.0) {
    info.push_back({"final_auc", first.final_auc, "1"});
  }
  if (untraced.wire_bytes > 0) {
    info.push_back({"wire_bytes_per_round",
                    Ratio(untraced.wire_bytes, untraced.rounds), "B"});
  }
  PrintMetrics("info (not gated):", info);

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(untraced, traced, workload->busy_threads());
    // The layer rows plus unattributed_s must add up to the traced round.
    double sum = 0.0;
    for (const auto& [metric, seconds] :
         LayerSecondsPerWindow(traced.self, Layers())) {
      sum += seconds;
    }
    const double traced_round = metrics.front().value;
    std::printf("additivity: layer rows + unattributed_s = %.9f s, traced "
                "round = %.9f s\n",
                sum, traced_round);
    if (std::fabs(sum - traced_round) > 1e-9 * std::max(1.0, traced_round)) {
      failures.push_back("layer rows do not add up to the traced round");
    }
    PrintMetrics("per-layer metrics (traced run):", metrics);
  } else {
    metrics = EndToEnd(untraced);
    PrintMetrics("end-to-end metrics:", metrics);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) failures.push_back(m.name + " not finite");
  }
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              failures.empty() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace fedda::perfbench

int main(int argc, char** argv) {
  return fedda::perfbench::Main(argc, argv);
}
