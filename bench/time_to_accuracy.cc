// Wall-clock view of RQ2/RQ3: maps each framework's per-round transmission
// accounting through a simulated network model (uplink-bound clients) and
// reports simulated time-to-accuracy. Synchronous rounds end when the
// slowest participant finishes uploading, so SimulateTiming charges the
// straggler's (max) measured uplink bytes, not the per-participant mean —
// FedDA's thinner uplink still shortens rounds unless its masks are badly
// skewed. Rounds are charged off real fl/wire.h payload sizes in both
// directions; the per-direction byte totals are reported alongside time.

#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "core/csv_writer.h"
#include "core/string_util.h"
#include "core/table_printer.h"
#include "fl/network.h"

namespace fedda::bench {
namespace {

int Main(int argc, char** argv) {
  CommonFlags flags;
  core::FlagParser parser;
  int num_clients = 8;
  double target_auc = 0.0;  // 0 = derive from FedAvg's final score
  double uplink_kbps = 1000.0;
  parser.AddInt("clients", &num_clients, "number of clients M");
  parser.AddDouble("target_auc", &target_auc,
                   "time-to-accuracy target (0 = 98% of FedAvg final)");
  parser.AddDouble("uplink_kbps", &uplink_kbps,
                   "client uplink bandwidth in kilobytes/sec");
  flags.Register(&parser);
  const core::Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == core::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  const fl::SystemConfig config = MakeSystemConfig(flags, num_clients);
  const fl::FederatedSystem system = fl::FederatedSystem::Build(config);

  fl::NetworkModel network;
  network.uplink_bytes_per_sec = uplink_kbps * 1000.0;
  network.downlink_bytes_per_sec = 4.0 * network.uplink_bytes_per_sec;

  // "Train/Enc/Agg/Eval s" are *measured* wall-clock phase totals from an
  // attached obs::Tracer (where this process actually spent its time);
  // "Sim." columns remain the network model's estimate.
  core::TablePrinter table({"Framework", "Final AUC", "Up kB", "Down kB",
                            "Train s", "Enc s", "Agg s", "Eval s",
                            "Sim. total time (s)", "Time to target (s)",
                            "vs FedAvg"});
  core::CsvWriter csv;
  FEDDA_CHECK_OK(csv.Open(OutputPath(flags, "time_to_accuracy.csv"),
                          {"framework", "final_auc", "uplink_bytes",
                           "downlink_bytes", "train_sec", "encode_sec",
                           "aggregate_sec", "eval_sec", "total_sec",
                           "time_to_target_sec"}));
  core::CsvWriter rounds_csv;
  FEDDA_CHECK_OK(
      rounds_csv.Open(OutputPath(flags, "time_to_accuracy_rounds.csv"),
                      {"framework", "round", "auc", "mean_local_loss",
                       "participants", "cumulative_sec"}));

  struct Row {
    std::string name;
    fl::FlRunResult run;
    std::vector<fl::RoundTiming> timing;
    PhaseBreakdown phases;
  };
  std::vector<Row> rows;
  for (const auto& [name, algorithm] :
       std::vector<std::pair<std::string, fl::FlAlgorithm>>{
           {"FedAvg", fl::FlAlgorithm::kFedAvg},
           {"FedDA-Restart", fl::FlAlgorithm::kFedDaRestart},
           {"FedDA-Explore", fl::FlAlgorithm::kFedDaExplore}}) {
    fl::FlOptions options = MakeFlOptions(flags);
    options.algorithm = algorithm;
    obs::Tracer tracer;
    options.tracer = &tracer;
    Row row;
    row.name = name;
    row.run = RunFederated(system, options, 42);
    row.timing = SimulateTiming(row.run, network, flags.local_epochs);
    row.phases = SummarizePhases(tracer);
    WriteTraceIfRequested(tracer, flags, name);
    rows.push_back(std::move(row));
    std::cout << "." << std::flush;
  }

  if (target_auc <= 0.0) target_auc = 0.98 * rows[0].run.final_auc;

  double fedavg_time = -1.0;
  for (const Row& row : rows) {
    const double tta = TimeToAccuracy(row.run, row.timing, target_auc);
    if (row.name == "FedAvg") fedavg_time = tta;
    const std::string speedup =
        (tta > 0 && fedavg_time > 0)
            ? core::StrFormat("%.0f%%", 100.0 * tta / fedavg_time)
            : "-";
    table.AddRow({row.name, core::FormatDouble(row.run.final_auc, 4),
                  core::FormatWithCommas(
                      static_cast<int64_t>(row.run.total_uplink_bytes / 1024)),
                  core::FormatWithCommas(static_cast<int64_t>(
                      row.run.total_downlink_bytes / 1024)),
                  core::StrFormat("%.2f", row.phases.train_sec),
                  core::StrFormat("%.2f", row.phases.encode_sec),
                  core::StrFormat("%.2f", row.phases.aggregate_sec),
                  core::StrFormat("%.2f", row.phases.eval_sec),
                  core::FormatDouble(row.timing.back().cumulative_sec, 1),
                  tta < 0 ? "not reached" : core::FormatDouble(tta, 1),
                  speedup});
    csv.WriteRow(std::vector<std::string>{
        row.name, core::FormatDouble(row.run.final_auc, 6),
        std::to_string(row.run.total_uplink_bytes),
        std::to_string(row.run.total_downlink_bytes),
        core::FormatDouble(row.phases.train_sec, 6),
        core::FormatDouble(row.phases.encode_sec, 6),
        core::FormatDouble(row.phases.aggregate_sec, 6),
        core::FormatDouble(row.phases.eval_sec, 6),
        core::FormatDouble(row.timing.back().cumulative_sec, 3),
        core::FormatDouble(tta, 3)});
    // Per-round convergence curve. mean_local_loss is NaN on a round where
    // nothing was aggregated (everyone failed); emit an empty field, never
    // "0.0" — averaging a fake perfect loss into the curve was the bug.
    for (size_t r = 0; r < row.run.history.size(); ++r) {
      const fl::RoundRecord& record = row.run.history[r];
      rounds_csv.WriteRow(std::vector<std::string>{
          row.name, std::to_string(record.round),
          core::FormatDouble(record.auc, 6),
          std::isnan(record.mean_local_loss)
              ? std::string()
              : core::FormatDouble(record.mean_local_loss, 6),
          std::to_string(record.participants),
          core::FormatDouble(row.timing[r].cumulative_sec, 3)});
    }
  }

  std::cout << "\n\n=== Simulated time-to-accuracy (target AUC "
            << core::FormatDouble(target_auc, 4) << ", uplink "
            << uplink_kbps << " kB/s, " << flags.dataset << ", M="
            << num_clients << ") ===\n";
  table.Print();
  std::cout << "\nRounds are charged at the slowest participant's measured "
               "wire bytes. FedDA\nlowers the MEAN uplink 20-40%, but its "
               "round time only drops when the\nper-client masks also thin "
               "the straggler — compare the 'Straggler scalars'\ncolumn of "
               "Table 3. 'Up/Down kB' are total measured payload bytes.\n";
  return 0;
}

}  // namespace
}  // namespace fedda::bench

int main(int argc, char** argv) { return fedda::bench::Main(argc, argv); }
