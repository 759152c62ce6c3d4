// Server-scalability sweep for the event-driven aggregation path: drives
// EventQueue + StreamingAggregator directly (no Client objects, no local
// graphs) over synthetic updates, sweeping the client count from 1e2 to
// 1e5, and reports rounds/sec plus process RSS. The point being measured:
// peak server memory is O(model + per-client bookkeeping), never
// O(participants x model) — each participant's update is (re)generated
// only when its arrival event pops, folded into the running sums, and
// freed before the next one materializes.
//
// Everything is seeded: a client's update is a pure function of
// (seed, round, client), so the final model checksum for a given
// (--clients, --rounds, --seed) is a deterministic regression witness.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/flags.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "core/timer.h"
#include "fl/aggregator.h"
#include "fl/event_queue.h"
#include "tensor/parameter_store.h"
#include "tensor/tensor.h"

namespace fedda::bench {
namespace {

/// Reads a "Vm...: <kB> kB" line from /proc/self/status. Returns -1 when
/// the field (or the file) is unavailable — the sweep still runs, it just
/// reports no memory column.
int64_t ReadProcStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) return -1;
  std::string line;
  const size_t field_len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, field_len, field) != 0) continue;
    int64_t kb = -1;
    std::istringstream rest(line.substr(field_len));
    rest >> kb;
    return kb;
  }
  return -1;
}

tensor::ParameterStore MakeSyntheticModel(int num_groups, int64_t group_size,
                                          uint64_t seed) {
  tensor::ParameterStore store;
  core::Rng rng(seed);
  for (int g = 0; g < num_groups; ++g) {
    tensor::Tensor init(group_size, 1);
    for (int64_t i = 0; i < group_size; ++i) {
      init.data()[i] = static_cast<float>(rng.Uniform(-0.1, 0.1));
    }
    store.Register("g" + std::to_string(g), std::move(init));
  }
  return store;
}

/// Regenerates client `c`'s round-`round` update into `scratch` (reused
/// across calls: the only update ever materialized). Same (seed, round, c)
/// -> bit-identical update.
void SynthesizeUpdate(uint64_t seed, int round, int c,
                      const tensor::ParameterStore& global,
                      tensor::ParameterStore* scratch) {
  core::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(
                                                    round * 1000003 + c + 1)));
  for (int g = 0; g < global.num_groups(); ++g) {
    const tensor::Tensor& base = global.value(g);
    tensor::Tensor& out = scratch->value(g);
    for (int64_t i = 0; i < base.size(); ++i) {
      out.data()[i] =
          base.data()[i] + static_cast<float>(rng.Uniform(-1e-3, 1e-3));
    }
  }
}

struct SweepResult {
  int64_t clients = 0;
  int rounds = 0;
  int participants_per_round = 0;
  int64_t num_scalars = 0;
  double wall_sec = 0.0;
  double rounds_per_sec = 0.0;
  int64_t vm_rss_kb = -1;
  int64_t vm_hwm_kb = -1;
  double checksum = 0.0;
};

SweepResult RunOneScale(int64_t num_clients, int rounds, int participants,
                        int num_groups, int64_t group_size, uint64_t seed) {
  tensor::ParameterStore global = MakeSyntheticModel(num_groups, group_size,
                                                     seed);
  tensor::ParameterStore scratch = global;  // reused update buffer
  std::vector<int> all_groups(static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) all_groups[static_cast<size_t>(g)] = g;

  core::Rng run_rng(seed);
  fl::EventQueue queue;
  core::WallTimer timer;
  for (int round = 0; round < rounds; ++round) {
    // Schedule: pick this round's participants and push their arrivals at
    // deterministic per-client virtual times (pseudo-random duration in
    // [0.5, 1.5) seconds, so arrival order != selection order and the
    // queue's (time, seq) ordering actually gets exercised).
    const double now = queue.virtual_now();
    std::vector<size_t> selected = run_rng.SampleWithoutReplacement(
        static_cast<size_t>(num_clients), static_cast<size_t>(participants));
    for (size_t idx : selected) {
      const double duration = run_rng.Uniform(0.5, 1.5);
      queue.Push(now + duration, fl::EventKind::kArrival,
                 static_cast<int>(idx), round);
    }
    // Drain: regenerate each arriving update on demand, fold it into the
    // running sums, and let it die. Peak live updates: exactly one.
    fl::StreamingAggregator aggregator(&global, nullptr, all_groups,
                                       fl::StreamingAggregator::Config{});
    while (!queue.empty()) {
      const fl::Event event = queue.Pop();
      SynthesizeUpdate(seed, event.round, event.client, global, &scratch);
      aggregator.Accumulate(event.client, 1.0, scratch);
    }
    std::vector<uint8_t> groups_updated;
    aggregator.Finalize(&global, &groups_updated);
  }

  SweepResult result;
  result.clients = num_clients;
  result.rounds = rounds;
  result.participants_per_round = participants;
  result.num_scalars = global.num_scalars();
  result.wall_sec = timer.ElapsedSeconds();
  result.rounds_per_sec =
      result.wall_sec > 0 ? static_cast<double>(rounds) / result.wall_sec : 0;
  result.vm_rss_kb = ReadProcStatusKb("VmRSS:");
  result.vm_hwm_kb = ReadProcStatusKb("VmHWM:");
  double checksum = 0.0;
  for (int g = 0; g < global.num_groups(); ++g) {
    const tensor::Tensor& value = global.value(g);
    for (int64_t i = 0; i < value.size(); ++i) {
      checksum += static_cast<double>(value.data()[i]);
    }
  }
  result.checksum = checksum;
  return result;
}

int Main(int argc, char** argv) {
  std::string clients_csv = "100,1000,10000,100000";
  int rounds = 3;
  int participants = 1024;
  int num_groups = 16;
  int64_t group_size = 2048;
  uint64_t seed_flag = 7;
  int seed_int = 7;
  std::string outdir = "bench_results";
  core::FlagParser parser;
  parser.AddString("clients", &clients_csv,
                   "comma-separated client counts to sweep");
  parser.AddInt("rounds", &rounds, "rounds per scale point");
  parser.AddInt("participants", &participants,
                "participants per round (capped at the client count)");
  parser.AddInt("groups", &num_groups, "synthetic model parameter groups");
  parser.AddInt("group_size", &group_size, "scalars per group");
  parser.AddInt("seed", &seed_int, "base RNG seed");
  parser.AddString("outdir", &outdir, "output directory for JSON results");
  const core::Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == core::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  seed_flag = static_cast<uint64_t>(seed_int);

  std::vector<int64_t> scales;
  std::istringstream split(clients_csv);
  std::string token;
  while (std::getline(split, token, ',')) {
    if (!token.empty()) scales.push_back(std::stoll(token));
  }
  FEDDA_CHECK(!scales.empty()) << "--clients parsed to nothing";

  core::TablePrinter table({"Clients", "Rounds", "Participants/round",
                            "Rounds/sec", "VmRSS MB", "VmHWM MB",
                            "Checksum"});
  std::vector<SweepResult> results;
  for (int64_t num_clients : scales) {
    const int p = static_cast<int>(
        std::min<int64_t>(num_clients, participants));
    SweepResult r = RunOneScale(num_clients, rounds, p, num_groups,
                                group_size, seed_flag);
    table.AddRow({core::FormatWithCommas(r.clients),
                  std::to_string(r.rounds),
                  core::FormatWithCommas(r.participants_per_round),
                  core::StrFormat("%.2f", r.rounds_per_sec),
                  r.vm_rss_kb < 0 ? "-"
                                  : core::StrFormat("%.1f",
                                                    r.vm_rss_kb / 1024.0),
                  r.vm_hwm_kb < 0 ? "-"
                                  : core::StrFormat("%.1f",
                                                    r.vm_hwm_kb / 1024.0),
                  core::StrFormat("%.6f", r.checksum)});
    results.push_back(r);
    std::cout << "." << std::flush;
  }

  // JSON out (hand-rolled: the repo has no JSON dependency and the schema
  // is flat).
  std::string json_path = outdir + "/scale_sweep.json";
  {
    // OutputPath() lives in bench_common, which drags in the full dataset
    // stack; keep this bench freestanding and create the directory with
    // the same semantics.
    const std::string cmd = "mkdir -p '" + outdir + "'";
    FEDDA_CHECK_EQ(std::system(cmd.c_str()), 0)
        << "cannot create outdir " << outdir;
  }
  std::ofstream json(json_path);
  FEDDA_CHECK(json.is_open()) << "cannot open " << json_path;
  json << "[\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    json << "  {\"clients\": " << r.clients << ", \"rounds\": " << r.rounds
         << ", \"participants_per_round\": " << r.participants_per_round
         << ", \"num_scalars\": " << r.num_scalars
         << ", \"wall_sec\": " << core::StrFormat("%.6f", r.wall_sec)
         << ", \"rounds_per_sec\": "
         << core::StrFormat("%.4f", r.rounds_per_sec)
         << ", \"vm_rss_kb\": " << r.vm_rss_kb
         << ", \"vm_hwm_kb\": " << r.vm_hwm_kb
         << ", \"checksum\": " << core::StrFormat("%.9f", r.checksum) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "]\n";
  json.close();

  std::cout << "\n\n=== Event-driven server scale sweep (" << rounds
            << " rounds/point, model " << num_groups << "x" << group_size
            << " = "
            << core::FormatWithCommas(
                   static_cast<int64_t>(num_groups) * group_size)
            << " scalars) ===\n";
  table.Print();
  std::cout << "\nPeak RSS should stay flat in the client count (O(model) "
               "streaming server):\nonly the per-client bookkeeping vectors "
               "grow with M, never the number of\nmaterialized updates. "
               "JSON written to " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace fedda::bench

int main(int argc, char** argv) { return fedda::bench::Main(argc, argv); }
