#ifndef INFUSERKI_BENCH_BENCH_COMMON_H_
#define INFUSERKI_BENCH_BENCH_COMMON_H_

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/infuserki.h"
#include "eval/experiment.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "peft/calinet.h"
#include "peft/full_finetune.h"
#include "peft/lora.h"
#include "peft/prefix_tuning.h"
#include "peft/tpatcher.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace infuserki::bench {

/// Fine-tuning epoch budgets shared by the table benches. Overridable via
/// --epochs / --infuserki_qa_epochs flags.
// Defaults sized for a single-core smoke run of the full suite; scale up
// with --epochs / --infuserki_qa_epochs (and --triplets) for tighter
// numbers.
struct EpochBudget {
  size_t baseline_epochs = 28;
  size_t infuserki_qa_epochs = 75;
};

/// The paper's reference numbers for one method row (used to print
/// "paper: ..." columns next to measured values in EXPERIMENTS.md style).
struct PaperRow {
  const char* method;
  const char* values;  // e.g. "NR=1.00 RR=0.52 ... (paper)"
};

inline std::string Fmt(double v) { return util::FormatFloat(v, 2); }

/// Builds the default experiment config for the table benches, reading
/// shared flags: --triplets, --seed, --pretrain_steps, --cache_dir, plus
/// the durability knobs --checkpoint_dir (empty disables snapshots),
/// --checkpoint_every, and --resume.
inline eval::ExperimentConfig MakeConfig(const util::Flags& flags,
                                         eval::ExperimentConfig::Domain
                                             domain,
                                         size_t default_triplets) {
  eval::ExperimentConfig config;
  config.domain = domain;
  config.num_triplets = static_cast<size_t>(
      flags.GetInt("triplets", static_cast<int64_t>(default_triplets)));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));
  config.arch.dim = static_cast<size_t>(flags.GetInt("dim", 64));
  config.arch.num_layers =
      static_cast<size_t>(flags.GetInt("layers", 8));
  config.arch.num_heads = 4;
  config.arch.ffn_hidden = config.arch.dim * 2;
  config.pretrain_steps = static_cast<size_t>(flags.GetInt(
      "pretrain_steps",
      static_cast<int64_t>(1200 + config.num_triplets * 4)));
  config.eval_cap = static_cast<size_t>(flags.GetInt("eval_cap", 36));
  config.downstream_cap =
      static_cast<size_t>(flags.GetInt("downstream_cap", 24));
  config.cache_dir = flags.GetString("cache_dir", "model_cache");
  config.checkpoint.dir = flags.GetString("checkpoint_dir", "");
  config.checkpoint.every_n_steps =
      static_cast<size_t>(flags.GetInt("checkpoint_every", 250));
  config.checkpoint.resume = flags.GetBool("resume", true);
  return config;
}

inline EpochBudget MakeBudget(const util::Flags& flags) {
  EpochBudget budget;
  budget.baseline_epochs = static_cast<size_t>(
      flags.GetInt("epochs", static_cast<int64_t>(budget.baseline_epochs)));
  budget.infuserki_qa_epochs = static_cast<size_t>(flags.GetInt(
      "infuserki_qa_epochs",
      static_cast<int64_t>(budget.infuserki_qa_epochs)));
  return budget;
}

/// Per-run observability plumbing shared by the bench binaries: reads
/// --trace_out=<path> / --metrics_out=<path>, enables span recording when
/// either output is requested, and on destruction (or Finish()) writes the
/// Chrome trace and the JSON run manifest.
///
/// Construct it before Experiment::Setup() so the setup spans are captured.
class ObsSession {
 public:
  ObsSession(const std::string& bench_name, const util::Flags& flags)
      : manifest_(bench_name),
        trace_out_(flags.GetString("trace_out", "")),
        metrics_out_(flags.GetString("metrics_out", "")) {
    if (!trace_out_.empty() || !metrics_out_.empty()) {
      obs::Tracer::Get().Enable();
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() { Finish(); }

  obs::RunManifest& manifest() { return manifest_; }

  /// Records the shared experiment configuration into the manifest.
  void AddExperimentConfig(const eval::ExperimentConfig& config) {
    manifest_.AddConfig(
        "domain", config.domain == eval::ExperimentConfig::Domain::kUmls
                      ? "umls"
                      : "metaqa");
    manifest_.AddConfig("triplets",
                        static_cast<int64_t>(config.num_triplets));
    manifest_.AddConfig("seed", static_cast<int64_t>(config.seed));
    manifest_.AddConfig("dim", static_cast<int64_t>(config.arch.dim));
    manifest_.AddConfig("layers",
                        static_cast<int64_t>(config.arch.num_layers));
    manifest_.AddConfig("pretrain_steps",
                        static_cast<int64_t>(config.pretrain_steps));
    manifest_.AddConfig("eval_cap", static_cast<int64_t>(config.eval_cap));
    if (!config.checkpoint.dir.empty()) {
      manifest_.AddConfig("checkpoint_dir", config.checkpoint.dir);
      manifest_.AddConfig(
          "checkpoint_every",
          static_cast<int64_t>(config.checkpoint.every_n_steps));
    }
  }

  void AddBudget(const EpochBudget& budget) {
    manifest_.AddConfig("epochs",
                        static_cast<int64_t>(budget.baseline_epochs));
    manifest_.AddConfig(
        "infuserki_qa_epochs",
        static_cast<int64_t>(budget.infuserki_qa_epochs));
  }

  /// Writes the requested outputs once; later calls (and the destructor)
  /// are no-ops.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    if (!trace_out_.empty()) {
      if (obs::Tracer::Get().WriteChromeTrace(trace_out_)) {
        std::cout << "(wrote chrome trace " << trace_out_
                  << " — open via chrome://tracing)\n";
      } else {
        std::cerr << "trace write failed: " << trace_out_ << "\n";
      }
    }
    if (!metrics_out_.empty()) {
      if (manifest_.Write(metrics_out_)) {
        std::cout << "(wrote metrics manifest " << metrics_out_ << ")\n";
      } else {
        std::cerr << "metrics manifest write failed: " << metrics_out_
                  << "\n";
      }
    }
  }

 private:
  obs::RunManifest manifest_;
  std::string trace_out_;
  std::string metrics_out_;
  bool finished_ = false;
};

/// Runs one method lifecycle: clone base, construct via `make`, train,
/// evaluate. The method object is destroyed afterwards (detaching any LoRA
/// state from the clone, which is then also dropped).
inline eval::MethodScores RunMethod(
    const eval::Experiment& experiment,
    const std::function<std::unique_ptr<core::KiMethod>(
        model::TransformerLM*)>& make) {
  std::unique_ptr<model::TransformerLM> lm = experiment.CloneBaseModel();
  std::unique_ptr<core::KiMethod> method = make(lm.get());
  core::KiTrainData data = experiment.BuildTrainData();
  // Train time is published to (and read back from) the metrics registry so
  // the printed table and the --metrics_out manifest report the same number.
  obs::Gauge* train_gauge = obs::Registry::Get().GetGauge(
      "method/" + method->name() + "/train_seconds");
  util::Stopwatch watch;
  method->Train(data);
  train_gauge->Set(watch.ElapsedSeconds());
  eval::MethodScores scores =
      experiment.EvaluateMethod(method->name(), *lm, method->Forward());
  scores.trainable_params = method->NumTrainableParameters();
  scores.train_seconds = train_gauge->Value();
  return scores;
}

/// Runs the full method roster of Tables 1-3 and returns the rows in paper
/// order (Vanilla, CALINET, T-Patcher, Prefix Tuning, LoRA, QLoRA,
/// InfuserKI).
inline std::vector<eval::MethodScores> RunStandardRoster(
    const eval::Experiment& experiment, const EpochBudget& budget) {
  std::vector<eval::MethodScores> rows;
  rows.push_back(experiment.EvaluateVanilla());
  std::cerr << "[bench] vanilla row done\n";

  rows.push_back(RunMethod(experiment, [&](model::TransformerLM* lm) {
    peft::CalinetOptions options;
    options.epochs = budget.baseline_epochs;
    return std::make_unique<peft::CalinetMethod>(lm, options);
  }));
  rows.push_back(RunMethod(experiment, [&](model::TransformerLM* lm) {
    peft::TPatcherOptions options;
    options.epochs = budget.baseline_epochs;
    return std::make_unique<peft::TPatcherMethod>(lm, options);
  }));
  rows.push_back(RunMethod(experiment, [&](model::TransformerLM* lm) {
    peft::PrefixTuningOptions options;
    options.epochs = budget.baseline_epochs;
    return std::make_unique<peft::PrefixTuningMethod>(lm, options);
  }));
  rows.push_back(RunMethod(experiment, [&](model::TransformerLM* lm) {
    peft::LoraOptions options;
    options.epochs = budget.baseline_epochs;
    options.rank = 8;
    options.alpha = 16.0f;
    options.lr = 3e-3f;
    return std::make_unique<peft::LoraMethod>(lm, options);
  }));
  rows.push_back(RunMethod(experiment, [&](model::TransformerLM* lm) {
    peft::LoraOptions options;
    options.epochs = budget.baseline_epochs;
    options.rank = 8;
    options.alpha = 16.0f;
    options.lr = 3e-3f;
    options.quantize_base = true;
    return std::make_unique<peft::LoraMethod>(lm, options);
  }));
  rows.push_back(RunMethod(experiment, [&](model::TransformerLM* lm) {
    core::InfuserKiOptions options;
    options.adapters.first_layer = 1;
    options.qa_epochs = budget.infuserki_qa_epochs;
    return std::make_unique<core::InfuserKi>(lm, options);
  }));
  return rows;
}

/// Prints a Table 1/2/3-shaped results table plus the paper's reference
/// rows, and writes a CSV.
inline void PrintStandardTable(const std::string& title,
                               const std::string& downstream_name,
                               const std::vector<eval::MethodScores>& rows,
                               const std::vector<PaperRow>& paper_rows,
                               const std::string& csv_path) {
  std::cout << "\n=== " << title << " ===\n\n";
  util::TablePrinter table({"Method", "NR", "RR", "F1_T1", "F1_T2", "F1_T3",
                            "F1_T4", "F1_T5", "F1_Unseen", downstream_name,
                            "params", "train_s"});
  for (const eval::MethodScores& row : rows) {
    table.AddRow({row.method, row.has_nr_rr ? Fmt(row.nr) : "-",
                  row.has_nr_rr ? Fmt(row.rr) : "-", Fmt(row.f1[0]),
                  Fmt(row.f1[1]), Fmt(row.f1[2]), Fmt(row.f1[3]),
                  Fmt(row.f1[4]), Fmt(row.f1_unseen), Fmt(row.downstream),
                  std::to_string(row.trainable_params),
                  util::FormatFloat(row.train_seconds, 1)});
  }
  table.Print(std::cout);
  util::Status status = table.WriteCsv(csv_path);
  if (!status.ok()) {
    std::cerr << "CSV write failed: " << status << "\n";
  } else {
    std::cout << "\n(wrote " << csv_path << ")\n";
  }
  if (!paper_rows.empty()) {
    std::cout << "\nPaper reference (" << title << "):\n";
    for (const PaperRow& row : paper_rows) {
      std::cout << "  " << row.method << ": " << row.values << "\n";
    }
  }
  std::cout.flush();
}

}  // namespace infuserki::bench

#endif  // INFUSERKI_BENCH_BENCH_COMMON_H_
