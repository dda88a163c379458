#include "core/ki_method.h"

#include "util/logging.h"

namespace infuserki::core {

std::vector<model::LmExample> BuildInstructionExamples(
    const KiTrainData& data, bool include_known, bool include_yesno) {
  CHECK(data.tokenizer != nullptr);
  std::vector<model::LmExample> examples;
  for (const kg::QaSample& sample : data.unknown_qa) {
    examples.push_back(model::MakeInstructionExample(
        *data.tokenizer, sample.prompt, sample.response));
  }
  if (include_known) {
    for (const kg::QaSample& sample : data.known_qa) {
      examples.push_back(model::MakeInstructionExample(
          *data.tokenizer, sample.prompt, sample.response));
      examples.back().tag = kKnownReplayTag;
    }
  }
  if (include_yesno) {
    for (const kg::YesNoSample& sample : data.unknown_yesno) {
      examples.push_back(model::MakeInstructionExample(
          *data.tokenizer, sample.prompt, sample.answer ? "yes" : "no"));
    }
  }
  return examples;
}

}  // namespace infuserki::core
