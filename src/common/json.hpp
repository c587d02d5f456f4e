// The tree's one JSON module. Writing: json_escape/json_quote/json_number,
// shared by StatSet::to_json, the observability layer, the lint emitters
// and the bench report emitter. Reading: parse_json, one strict DOM reader
// behind report-diff, `mac3d analyze` and the lint baseline/schema loaders.
//
// Reader rules: RFC 8259 grammar only — no comments, trailing commas,
// leading '+' or leading zeros, and no raw control characters inside
// strings. Numbers must be finite (1e999 is an error, not infinity).
// `\u` takes exactly four hex digits; a code point below 0x80 decodes to
// its byte and anything else to '?', so every string json_escape writes
// reads back unchanged. Containers nest at most 64 deep. Every error names
// the byte offset where reading stopped.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mac3d {

/// Escape a string for inclusion inside JSON double quotes.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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

/// Quote + escape in one step.
inline std::string json_quote(std::string_view text) {
  return '"' + json_escape(text) + '"';
}

/// Format a double as a JSON number token at full round-trip precision.
/// Integral values print without an exponent/fraction; non-finite values
/// (illegal in JSON) degrade to null.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // Integers up to 2^53 round-trip exactly and read better than 1e+06.
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Format an unsigned 64-bit counter as a JSON number token.
inline std::string json_number(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

/// One parsed JSON value. Object members keep document order; find()
/// returns the last member with a key, so a duplicated key reads as its
/// last occurrence (the rule flatten_json's path maps follow too).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;  ///< kNumber; always finite
  std::string string;
  std::vector<JsonValue> items;  ///< kArray elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// Object member lookup (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      if (it->first == key) return &it->second;
    }
    return nullptr;
  }

  /// String member, or `fallback` when absent or not a string.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback = "") const {
    const JsonValue* value = find(key);
    return value != nullptr && value->kind == Kind::kString ? value->string
                                                            : fallback;
  }

  /// Checked count conversion: the value when this is a number holding a
  /// non-negative integer no larger than 2^53 (the range a double carries
  /// exactly), nullopt otherwise. Never casts an out-of-range double.
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const noexcept {
    if (kind != Kind::kNumber || !(number >= 0.0) ||
        number > 9007199254740992.0 || number != std::floor(number)) {
      return std::nullopt;
    }
    return static_cast<std::uint64_t>(number);
  }
};

/// Parse `text` into `out`. Returns false with a one-line `error` that
/// names the byte offset on malformed input.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string& error);

}  // namespace mac3d
