#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <system_error>

namespace mac3d {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool run(JsonValue& out, std::string& error) {
    if (value(out, 0)) {
      skip_ws();
      if (pos_ == text_.size()) return true;
      fail("trailing content after document");
    }
    error = error_;
    return false;
  }

 private:
  static constexpr int kMaxDepth = 64;

  /// Record the first failure with its byte offset; always false.
  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return object(out, depth + 1);
    if (c == '[') return array(out, depth + 1);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (literal("true") || literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = c == 't';
      return true;
    }
    if (literal("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return number(out);
  }

  bool object(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // {
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (at_end() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      if (!consume(':')) return fail("expected ':'");
      JsonValue& member =
          out.members.emplace_back(std::move(key), JsonValue{}).second;
      if (!value(member, depth)) return false;
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // [
    if (consume(']')) return true;
    while (true) {
      if (!value(out.items.emplace_back(), depth)) return false;
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (!at_end()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) break;
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Exactly four hex digits (from_chars takes no sign or prefix
          // for an unsigned base-16 read).
          const char* first = text_.data() + pos_;
          const char* last = first + std::min<std::size_t>(
                                         4, text_.size() - pos_);
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(first, last, code, 16);
          if (ec != std::errc() || end != first + 4) {
            return fail("bad \\u escape");
          }
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  /// Skip one run of decimal digits; false when there is none.
  bool digits() {
    const std::size_t start = pos_;
    while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && text_[pos_] == '-') ++pos_;
    if (!at_end() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      pos_ = start;
      return fail("invalid value");
    }
    if (!at_end() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail("malformed number");
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) return fail("malformed number");
    }
    const char* last = text_.data() + pos_;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, last, out.number);
    if (ec != std::errc() || end != last || !std::isfinite(out.number)) {
      pos_ = start;
      return fail("number out of range");
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  out = JsonValue{};
  return Reader(text).run(out, error);
}

}  // namespace mac3d
