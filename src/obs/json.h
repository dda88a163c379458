#ifndef INFUSERKI_OBS_JSON_H_
#define INFUSERKI_OBS_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

namespace infuserki::obs {

/// Escapes `text` for inclusion in a JSON string literal (without the
/// surrounding quotes).
inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `text` as a JSON string literal: escaped, in double quotes.
inline std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  out += JsonEscape(text);
  out += '"';
  return out;
}

/// Formats a double as a JSON number. NaN/infinity (not representable in
/// JSON) become null.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

/// Minimal append-only JSON object builder. Keys are escaped; values added
/// via AddRaw must already be valid JSON (e.g. a nested Finish() result).
class JsonWriter {
 public:
  JsonWriter& AddString(const std::string& key, const std::string& value) {
    return AddRaw(key, JsonQuote(value));
  }
  JsonWriter& AddNumber(const std::string& key, double value) {
    return AddRaw(key, JsonNumber(value));
  }
  JsonWriter& AddInt(const std::string& key, int64_t value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonWriter& AddUint(const std::string& key, uint64_t value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonWriter& AddBool(const std::string& key, bool value) {
    return AddRaw(key, value ? "true" : "false");
  }
  JsonWriter& AddRaw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += JsonQuote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }

  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace infuserki::obs

#endif  // INFUSERKI_OBS_JSON_H_
