#include "kg/synth.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace infuserki::kg {
namespace {

// ---------------------------------------------------------------------------
// Name generation
// ---------------------------------------------------------------------------

const char* const kMedPrefix[] = {
    "cardio", "neuro",  "osteo",  "derma",  "gastro", "hepato", "nephro",
    "pulmo",  "angio",  "myelo",  "arthro", "cranio", "broncho", "entero",
    "hemato", "lipo",   "fibro",  "chondro", "masto",  "cysto",  "rhino",
    "oto",    "ophthal", "glosso", "thoraco", "spleno", "adeno",  "colo",
};

const char* const kMedStem[] = {
    "vas",  "neur", "derm", "fleb", "tens", "plex",  "cort", "gland",
    "duct", "sept", "vill", "foll", "nod",  "trab",  "lam",  "stri",
};

const char* const kMedSuffix[] = {
    "itis",   "osis",   "pathia", "plasia", "trophy", "ectomy", "otomy",
    "plasty", "graphy", "scopy",  "algia",  "emia",   "oma",    "genesis",
    "lysis",  "rrhea",  "stasis", "ptosis", "sclerosis", "megaly",
};

const char* const kMedQualifier[] = {
    "disorder", "finding", "procedure", "syndrome", "structure", "morphology",
};

const char* const kFirstNames[] = {
    "alan",  "bruno",  "clara",  "dario", "elena", "felix",  "greta",
    "hugo",  "irene",  "jonas",  "karla", "lukas", "marta",  "nils",
    "olga",  "pablo",  "quinn",  "rosa",  "stefan", "tessa", "umar",
    "vera",  "walter", "ximena", "yann",  "zelda",
};

const char* const kLastNames[] = {
    "abrams",   "bergman", "castell", "dunmore", "eastwick", "farrow",
    "goldman",  "harlow",  "ingram",  "jansen",  "kessler",  "lindqvist",
    "morrow",   "novak",   "ostrom",  "pearce",  "quintero", "renshaw",
    "sorensen", "thatcher", "ulrich",  "vance",   "whitfield", "yarrow",
};

const char* const kMovieAdj[] = {
    "silent",  "crimson", "broken",  "golden", "hidden", "frozen",
    "burning", "lonely",  "endless", "savage", "gentle", "hollow",
    "velvet",  "shattered", "winding", "distant", "pale", "electric",
};

const char* const kMovieNoun[] = {
    "harbor", "empire",  "garden",  "voyage",  "shadow", "river",
    "crown",  "orchard", "lantern", "horizon", "meadow", "fortress",
    "mirror", "carnival", "station", "compass", "summit", "archive",
};

const char* const kLanguages[] = {
    "english", "french", "spanish", "german", "italian",
    "japanese", "korean", "hindi",  "swedish", "portuguese",
};

const char* const kGenres[] = {
    "drama",    "comedy", "thriller", "horror",  "romance", "western",
    "musical",  "mystery", "adventure", "animation", "crime", "fantasy",
};

const char* const kTags[] = {
    "heist",     "courtroom", "roadtrip",  "dystopia",  "biopic",
    "noir",      "slapstick", "espionage", "wilderness", "haunting",
    "underdog",  "betrayal",  "redemption", "timeloop",  "smalltown",
    "seafaring", "backstage", "frontier",  "conspiracy", "homecoming",
};

const char* const kVoteLevels[] = {
    "famous", "popular", "acclaimed", "obscure", "cult",
};

template <size_t N>
const char* Pick(const char* const (&bank)[N], util::Rng* rng) {
  return bank[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(N) - 1))];
}

/// Draws a unique pseudo-medical concept name, e.g.
/// "cardiovasitis disorder" or "neuroplasia".
std::string UniqueMedicalName(std::unordered_set<std::string>* used,
                              util::Rng* rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string name = std::string(Pick(kMedPrefix, rng)) +
                       Pick(kMedStem, rng) + Pick(kMedSuffix, rng);
    if (rng->Bernoulli(0.4)) {
      name += std::string(" ") + Pick(kMedQualifier, rng);
    }
    if (rng->Bernoulli(0.15)) {
      name += " type " + std::to_string(rng->UniformInt(1, 9));
    }
    if (used->insert(name).second) return name;
  }
  // Collision fallback: append a unique ordinal.
  std::string name;
  do {
    name = std::string(Pick(kMedPrefix, rng)) + Pick(kMedStem, rng) +
           Pick(kMedSuffix, rng) + " variant " +
           std::to_string(used->size());
  } while (!used->insert(name).second);
  return name;
}

std::string UniquePersonName(std::unordered_set<std::string>* used,
                             util::Rng* rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string name =
        std::string(Pick(kFirstNames, rng)) + " " + Pick(kLastNames, rng);
    if (used->insert(name).second) return name;
  }
  std::string name;
  do {
    name = std::string(Pick(kFirstNames, rng)) + " " +
           Pick(kLastNames, rng) + " " +
           std::to_string(used->size());
  } while (!used->insert(name).second);
  return name;
}

std::string UniqueMovieName(std::unordered_set<std::string>* used,
                            util::Rng* rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::string name =
        std::string("the ") + Pick(kMovieAdj, rng) + " " +
        Pick(kMovieNoun, rng);
    if (rng->Bernoulli(0.2)) {
      name += ' ';
      name += std::to_string(rng->UniformInt(2, 4));  // sequels
    }
    if (used->insert(name).second) return name;
  }
  std::string name;
  do {
    name = std::string("the ") + Pick(kMovieAdj, rng) + " " +
           Pick(kMovieNoun, rng) + " " + std::to_string(used->size());
  } while (!used->insert(name).second);
  return name;
}

struct UmlsRelationSpec {
  const char* name;
  const char* surface;
};

const UmlsRelationSpec kUmlsRelations[] = {
    {"has_finding_site", "finding site"},
    {"treats", "treatment target"},
    {"causes", "caused condition"},
    {"prevents", "prevented condition"},
    {"diagnoses", "diagnosed condition"},
    {"associated_with", "associated condition"},
    {"part_of", "parent structure"},
    {"has_symptom", "symptom"},
    {"contraindicates", "contraindicated condition"},
    {"interacts_with", "interacting agent"},
    {"located_in", "anatomical location"},
    {"derives_from", "source tissue"},
    {"measures", "measured quantity"},
    {"regulates", "regulated process"},
    {"disrupts", "disrupted process"},
    {"produces", "produced substance"},
    {"carries_risk_of", "associated risk"},
    {"manifests_as", "manifestation"},
    {"occurs_in", "affected population"},
    {"affects", "affected function"},
    {"co_occurs_with", "co occurring condition"},
    {"method_of", "parent method"},
    {"uses_substance", "active substance"},
    {"has_stage", "clinical stage"},
};

}  // namespace

KnowledgeGraph SyntheticUmls(const SynthOptions& options) {
  CHECK_GE(options.num_triplets, size_t{24});
  util::Rng rng(options.seed);
  KnowledgeGraph kg;
  std::unordered_set<std::string> used_names;

  constexpr size_t kNumRelations =
      sizeof(kUmlsRelations) / sizeof(kUmlsRelations[0]);
  std::vector<int> relation_ids;
  relation_ids.reserve(kNumRelations);
  for (const UmlsRelationSpec& spec : kUmlsRelations) {
    relation_ids.push_back(kg.AddRelation(spec.name, spec.surface));
  }

  // Per-relation typed tail pools: large enough for edit-distance distractor
  // selection to be meaningful, small enough that pools are reused across
  // triplets (so "known" distractors recur and the LM can learn them).
  size_t pool_size = std::max<size_t>(
      8, options.num_triplets / kNumRelations / 3);
  pool_size = std::min<size_t>(pool_size, 64);
  std::vector<std::vector<int>> tails(kNumRelations);
  for (size_t r = 0; r < kNumRelations; ++r) {
    for (size_t i = 0; i < pool_size; ++i) {
      tails[r].push_back(kg.AddEntity(UniqueMedicalName(&used_names, &rng)));
    }
  }

  // Head concepts: roughly one head per two triplets, so most heads carry a
  // couple of facts (as in real UMLS samples).
  size_t num_heads = std::max<size_t>(kNumRelations,
                                      options.num_triplets / 2);
  std::vector<int> heads;
  heads.reserve(num_heads);
  for (size_t i = 0; i < num_heads; ++i) {
    heads.push_back(kg.AddEntity(UniqueMedicalName(&used_names, &rng)));
  }

  size_t added = 0;
  size_t attempts = 0;
  while (added < options.num_triplets &&
         attempts < options.num_triplets * 50) {
    ++attempts;
    size_t r = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kNumRelations) - 1));
    int head = rng.Choice(heads);
    int tail = rng.Choice(tails[r]);
    if (kg.AddTriplet(head, relation_ids[r], tail).ok()) ++added;
  }
  CHECK_EQ(added, options.num_triplets)
      << "SyntheticUmls could not place all triplets";
  return kg;
}

KnowledgeGraph SyntheticMetaQa(const SynthOptions& options) {
  CHECK_GE(options.num_triplets, size_t{9});
  util::Rng rng(options.seed);
  KnowledgeGraph kg;
  std::unordered_set<std::string> used_names;

  const int rel_directed = kg.AddRelation("directed_by", "director");
  const int rel_written = kg.AddRelation("written_by", "writer");
  const int rel_starred = kg.AddRelation("starred_actors", "starring actor");
  const int rel_year = kg.AddRelation("release_year", "release year");
  const int rel_language = kg.AddRelation("in_language", "language");
  const int rel_genre = kg.AddRelation("has_genre", "genre");
  const int rel_tags = kg.AddRelation("has_tags", "tag");
  const int rel_rating = kg.AddRelation("has_imdb_rating", "imdb rating");
  const int rel_votes = kg.AddRelation("has_imdb_votes", "vote level");

  // People pools (directors/writers/actors overlap in real MetaQA; keep
  // them disjoint here so tail pools stay typed).
  auto make_people = [&](size_t n) {
    std::vector<int> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(kg.AddEntity(UniquePersonName(&used_names, &rng)));
    }
    return ids;
  };
  size_t people_pool = std::max<size_t>(10, options.num_triplets / 60);
  std::vector<int> directors = make_people(people_pool);
  std::vector<int> writers = make_people(people_pool);
  std::vector<int> actors = make_people(people_pool * 2);

  std::vector<int> years;
  for (int y = 1950; y <= 2015; y += 5) {
    years.push_back(kg.AddEntity(std::to_string(y)));
  }
  std::vector<int> languages, genres, tags, ratings, votes;
  for (const char* v : kLanguages) languages.push_back(kg.AddEntity(v));
  for (const char* v : kGenres) genres.push_back(kg.AddEntity(v));
  for (const char* v : kTags) tags.push_back(kg.AddEntity(v));
  for (int r = 3; r <= 9; ++r) {
    ratings.push_back(kg.AddEntity("rated " + std::to_string(r)));
  }
  for (const char* v : kVoteLevels) votes.push_back(kg.AddEntity(v));

  // Each movie contributes up to nine facts; create enough movies.
  size_t num_movies = options.num_triplets / 6 + 2;
  std::vector<int> movies;
  for (size_t i = 0; i < num_movies; ++i) {
    movies.push_back(kg.AddEntity(UniqueMovieName(&used_names, &rng)));
  }

  struct Slot {
    int relation;
    const std::vector<int>* pool;
  };
  size_t added = 0;
  for (int movie : movies) {
    if (added >= options.num_triplets) break;
    const Slot slots[] = {
        {rel_directed, &directors}, {rel_written, &writers},
        {rel_starred, &actors},     {rel_year, &years},
        {rel_language, &languages}, {rel_genre, &genres},
        {rel_tags, &tags},          {rel_rating, &ratings},
        {rel_votes, &votes},
    };
    for (const Slot& slot : slots) {
      if (added >= options.num_triplets) break;
      int tail = rng.Choice(*slot.pool);
      if (kg.AddTriplet(movie, slot.relation, tail).ok()) ++added;
    }
  }
  CHECK_EQ(added, options.num_triplets)
      << "SyntheticMetaQa could not place all triplets";
  return kg;
}

}  // namespace infuserki::kg
