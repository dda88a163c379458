#ifndef INFUSERKI_CORE_KI_METHOD_H_
#define INFUSERKI_CORE_KI_METHOD_H_

#include <string>
#include <vector>

#include "kg/dataset.h"
#include "model/hooks.h"
#include "model/trainer.h"
#include "model/transformer.h"
#include "text/tokenizer.h"

namespace infuserki::core {

/// The training material handed to every knowledge-integration method.
///
/// Mirrors the experimental protocol of §4.1: all methods receive QA samples
/// for the unknown triplets (seen templates T1/T2) plus the same modest mix
/// of known-triplet samples "to ensure fairness"; InfuserKI additionally
/// consumes the knowledge statements for its RC phase and the known samples
/// for Infuser tuning.
struct KiTrainData {
  const text::Tokenizer* tokenizer = nullptr;
  const kg::KnowledgeGraph* kg = nullptr;

  /// QA samples for unknown triplets, templates T1 and T2.
  std::vector<kg::QaSample> unknown_qa;

  /// QA samples for a sample of known triplets (replay / Infuser negatives).
  std::vector<kg::QaSample> known_qa;

  /// A small set of yes/no samples for unknown triplets (the paper mixes
  /// these in "to enhance the model generality to various question types").
  std::vector<kg::YesNoSample> unknown_yesno;

  /// Knowledge statements for unknown triplets (RC + NTL phase inputs).
  std::vector<kg::StatementSample> unknown_statements;
};

/// `model::LmExample::tag` of the known-sample mix. Only InfuserKI reads
/// it: its QA phase runs these examples with the gate forced open.
constexpr int kKnownReplayTag = 1;

/// Converts KiTrainData into instruction-tuning examples: unknown QA,
/// optionally the known-sample mix (tagged kKnownReplayTag), optionally the
/// yes/no samples. Shared by InfuserKI's QA phase and every baseline.
std::vector<model::LmExample> BuildInstructionExamples(
    const KiTrainData& data, bool include_known, bool include_yesno);

/// A knowledge-integration method under test: it owns whatever trainable
/// modules it adds, trains them from KiTrainData against a frozen (or, for
/// full fine-tuning, unfrozen) base model, and exposes the ForwardOptions
/// that activate it at inference time.
class KiMethod {
 public:
  virtual ~KiMethod() = default;

  /// Display name used in result tables (e.g. "LoRA", "InfuserKI").
  virtual std::string name() const = 0;

  /// Runs the method's full training recipe.
  virtual void Train(const KiTrainData& data) = 0;

  /// Forward configuration that applies the integrated knowledge. The
  /// returned hooks point into this object; it must outlive their use.
  virtual model::ForwardOptions Forward() = 0;

  /// Number of scalars this method trains (the paper reports ~2.5M extra
  /// parameters for InfuserKI on LLaMa-2-7B).
  virtual size_t NumTrainableParameters() const = 0;
};

}  // namespace infuserki::core

#endif  // INFUSERKI_CORE_KI_METHOD_H_
