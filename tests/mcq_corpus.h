#ifndef INFUSERKI_TESTS_MCQ_CORPUS_H_
#define INFUSERKI_TESTS_MCQ_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kg/mcq.h"
#include "kg/synth.h"
#include "kg/templates.h"
#include "util/rng.h"

// The MCQ prompts of perfbench's serve_chat, before its de-duplication and
// shuffle: FormatMcqPrompt over McqBuilder::BuildAll (template 1, RNG seed
// + 1) on a synthetic UMLS KG. Shared by the golden digests in kg_test and
// tokenizer_test and by bench_micro_tensor's BM_TokenizerBuild.

namespace infuserki::testing {

inline std::vector<std::string> McqCorpus(size_t triplets, uint64_t seed) {
  kg::SynthOptions synth;
  synth.num_triplets = triplets;
  synth.seed = seed;
  kg::KnowledgeGraph graph = kg::SyntheticUmls(synth);
  kg::TemplateEngine templates;
  kg::McqBuilder builder(&graph, &templates);
  util::Rng rng(seed + 1);
  std::vector<std::string> prompts;
  for (const kg::Mcq& mcq : builder.BuildAll(/*template_id=*/1, &rng)) {
    prompts.push_back(kg::FormatMcqPrompt(mcq));
  }
  return prompts;
}

}  // namespace infuserki::testing

#endif  // INFUSERKI_TESTS_MCQ_CORPUS_H_
