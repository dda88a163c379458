#ifndef INFUSERKI_UTIL_STRING_UTIL_H_
#define INFUSERKI_UTIL_STRING_UTIL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace infuserki::util {

/// Splits `text` at any character in `delims`, dropping empty pieces.
std::vector<std::string> Split(std::string_view text,
                               std::string_view delims = " ");

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// Strips leading/trailing whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Levenshtein distance (unit costs) from one pattern to many texts. Used by
/// the MCQ distractor selection rule from Appendix A.1 of the paper, which
/// compares one name against a relation's whole tail pool.
///
/// The constructor builds the pattern's per-byte match masks once; To() then
/// runs Myers' bit-vector recurrence (J. ACM 46(3), 1999, in Hyyro's form
/// for global distance): one 64-bit word per text byte, no allocation.
/// Patterns over 64 bytes fall back to the two-row dynamic program.
/// `pattern` must outlive the object.
class EditDistanceFrom {
 public:
  explicit EditDistanceFrom(std::string_view pattern);

  size_t To(std::string_view text) const;

 private:
  std::string_view pattern_;
  std::array<uint64_t, 256> match_{};  // bit i: pattern_[i] == byte
};

/// Formats a double with fixed precision, e.g. FormatFloat(0.987, 2) ==
/// "0.99".
std::string FormatFloat(double value, int precision);

/// True when `text` contains `needle`.
bool Contains(std::string_view text, std::string_view needle);

}  // namespace infuserki::util

#endif  // INFUSERKI_UTIL_STRING_UTIL_H_
