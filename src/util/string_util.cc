#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace infuserki::util {

std::vector<std::string> Split(std::string_view text,
                               std::string_view delims) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || delims.find(text[i]) != std::string_view::npos) {
      if (i > start) pieces.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(text.substr(pos));
      return out;
    }
    out.append(text.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

namespace {

constexpr size_t kWordBits = 64;

/// Two-row dynamic program; the path for patterns longer than one word.
size_t EditDistanceDp(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  // b is the shorter string.
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> curr(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t substitute = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitute});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

}  // namespace

EditDistanceFrom::EditDistanceFrom(std::string_view pattern)
    : pattern_(pattern) {
  if (pattern_.size() > kWordBits) return;
  for (size_t i = 0; i < pattern_.size(); ++i) {
    match_[static_cast<unsigned char>(pattern_[i])] |= uint64_t{1} << i;
  }
}

size_t EditDistanceFrom::To(std::string_view text) const {
  const size_t m = pattern_.size();
  if (m == 0) return text.size();
  if (m > kWordBits) return EditDistanceDp(pattern_, text);
  // Column j of the DP table is held as vertical deltas D[i][j] -
  // D[i-1][j] in {-1, 0, +1}: bit i-1 of pv (mv) is set where the delta is
  // +1 (-1). Row 0 is D[0][j] = j, so every horizontal delta entering at the
  // top is +1 (the `| 1` below). `score` tracks D[m][j] through the
  // horizontal delta at bit m-1. Bits at and above m never carry into the
  // bits below, so they need no masking.
  const uint64_t last = uint64_t{1} << (m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = m;
  for (char c : text) {
    const uint64_t eq = match_[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      ++score;
    } else if (mh & last) {
      --score;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

std::string FormatFloat(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

bool Contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

}  // namespace infuserki::util
