#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace infuserki::text {

std::vector<std::string> BasicTokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isspace(c)) {
      flush();
    } else if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else {
      flush();
      tokens.push_back(std::string(1, raw));
    }
  }
  flush();
  return tokens;
}

Tokenizer::Tokenizer() {
  id_to_word_ = {"<pad>", "<bos>", "<eos>", "<unk>"};
  for (size_t i = 0; i < id_to_word_.size(); ++i) {
    word_to_id_[id_to_word_[i]] = static_cast<int>(i);
  }
}

Tokenizer Tokenizer::Build(const std::vector<std::string>& corpus,
                           int min_count) {
  std::unordered_map<std::string, int> counts;
  for (const std::string& doc : corpus) {
    for (std::string& token : BasicTokenize(doc)) {
      ++counts[std::move(token)];
    }
  }
  std::vector<std::string> words;
  for (const auto& [word, count] : counts) {
    if (count >= min_count) words.push_back(word);
  }
  // Ids follow the sorted word order, whatever the corpus order.
  std::sort(words.begin(), words.end());
  Tokenizer tokenizer;
  for (const std::string& word : words) tokenizer.AddWord(word);
  return tokenizer;
}

int Tokenizer::AddWord(const std::string& word) {
  auto it = word_to_id_.find(word);
  if (it != word_to_id_.end()) return it->second;
  int id = static_cast<int>(id_to_word_.size());
  id_to_word_.push_back(word);
  word_to_id_[word] = id;
  return id;
}

std::vector<int> Tokenizer::Encode(std::string_view text) const {
  std::vector<int> ids;
  for (const std::string& token : BasicTokenize(text)) {
    auto it = word_to_id_.find(token);
    ids.push_back(it == word_to_id_.end() ? kUnkId : it->second);
  }
  return ids;
}

std::vector<int> Tokenizer::EncodeWithSpecials(std::string_view text,
                                               bool add_eos) const {
  std::vector<int> ids;
  ids.push_back(kBosId);
  std::vector<int> body = Encode(text);
  ids.insert(ids.end(), body.begin(), body.end());
  if (add_eos) ids.push_back(kEosId);
  return ids;
}

util::StatusOr<std::string> Tokenizer::Decode(
    const std::vector<int>& ids) const {
  // Pass 1 validates the ids and sizes the text; pass 2 fills it, so the
  // result is one exact-size allocation with no per-word copies.
  size_t length = 0;
  size_t words = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    int id = ids[i];
    if (id == kPadId || id == kBosId || id == kEosId) continue;
    if (id < 0 || static_cast<size_t>(id) >= id_to_word_.size()) {
      return util::Status::OutOfRange(
          "token id " + std::to_string(id) + " at position " +
          std::to_string(i) + " outside vocabulary of " +
          std::to_string(id_to_word_.size()));
    }
    length += id_to_word_[static_cast<size_t>(id)].size();
    ++words;
  }
  std::string text;
  text.reserve(length + (words > 0 ? words - 1 : 0));
  bool first = true;
  for (int id : ids) {
    if (id == kPadId || id == kBosId || id == kEosId) continue;
    if (!first) text.push_back(' ');
    first = false;
    text.append(id_to_word_[static_cast<size_t>(id)]);
  }
  return text;
}

int Tokenizer::WordId(const std::string& word) const {
  auto it = word_to_id_.find(word);
  return it == word_to_id_.end() ? kUnkId : it->second;
}

bool Tokenizer::HasWord(const std::string& word) const {
  return word_to_id_.count(word) > 0;
}

const std::string& Tokenizer::IdToWord(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= id_to_word_.size()) {
    return id_to_word_[kUnkId];
  }
  return id_to_word_[static_cast<size_t>(id)];
}

void Tokenizer::Serialize(util::BinaryWriter* writer) const {
  writer->WriteU64(id_to_word_.size());
  for (const std::string& word : id_to_word_) {
    writer->WriteString(word);
  }
}

util::StatusOr<Tokenizer> Tokenizer::Deserialize(
    util::BinaryReader* reader) {
  uint64_t size = reader->ReadU64();
  if (!reader->ok() || size < 4 || size > (1ull << 28)) {
    return util::Status::DataLoss("corrupt tokenizer in " + reader->path());
  }
  Tokenizer tokenizer;
  for (uint64_t i = 0; i < size; ++i) {
    std::string word = reader->ReadString();
    if (!reader->ok()) {
      return util::Status::DataLoss("truncated tokenizer in " +
                                    reader->path());
    }
    if (i < 4) continue;  // specials are fixed by the constructor
    tokenizer.AddWord(word);
  }
  return tokenizer;
}

}  // namespace infuserki::text
