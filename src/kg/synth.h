#ifndef INFUSERKI_KG_SYNTH_H_
#define INFUSERKI_KG_SYNTH_H_

#include <cstdint>

#include "kg/graph.h"

namespace infuserki::kg {

/// Options shared by the synthetic KG generators.
struct SynthOptions {
  size_t num_triplets = 2500;
  uint64_t seed = 17;
};

/// Synthetic stand-in for the UMLS medical KG sample used by the paper
/// (2.5k / 25k triplets): ~24 biomedical relation types, pseudo-medical
/// concept names built from Latin/Greek syllables, per-relation typed tail
/// pools so that MCQ distractors are plausible.
KnowledgeGraph SyntheticUmls(const SynthOptions& options);

/// Synthetic stand-in for the MetaQA movie KG (2.9k triplets): exactly the
/// nine canonical MetaQA relations (directed_by, written_by,
/// starred_actors, release_year, in_language, has_genre, has_tags,
/// has_imdb_rating, has_imdb_votes) over generated movies and people.
KnowledgeGraph SyntheticMetaQa(const SynthOptions& options);

}  // namespace infuserki::kg

#endif  // INFUSERKI_KG_SYNTH_H_
