#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <utility>

namespace grasp::obs {

namespace {

/// Build a parsed value in place inside the optional.  Returning a
/// JsonValue temporary instead would move-construct the variant, and
/// GCC 12 then warns (-Wmaybe-uninitialized) about the alternatives the
/// temporary never held.
template <typename T>
std::optional<JsonValue> value_of(T&& v) {
  return std::optional<JsonValue>(std::in_place, std::forward<T>(v));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    std::optional<JsonValue> value = parse_value();
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        value.reset();
      }
    }
    if (!value && error != nullptr) *error = error_;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

  std::nullptr_t fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at byte " + std::to_string(pos_);
    return nullptr;
  }

  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (at_end()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s) return std::nullopt;
        return value_of(std::move(*s));
      }
      case 't':
        if (!expect_literal("true")) return std::nullopt;
        return value_of(true);
      case 'f':
        if (!expect_literal("false")) return std::nullopt;
        return value_of(false);
      case 'n':
        if (!expect_literal("null")) return std::nullopt;
        return value_of(nullptr);
      default: return parse_number();
    }
  }

  std::optional<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonObject obj;
    skip_ws();
    if (consume('}')) return value_of(std::move(obj));
    while (true) {
      skip_ws();
      if (at_end() || text_[pos_] != '"') {
        fail("expected object key");
        return std::nullopt;
      }
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after key");
        return std::nullopt;
      }
      std::optional<JsonValue> value = parse_value();
      if (!value) return std::nullopt;
      obj.insert_or_assign(std::move(*key), std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return value_of(std::move(obj));
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_array() {
    ++pos_;  // '['
    JsonArray arr;
    skip_ws();
    if (consume(']')) return value_of(std::move(arr));
    while (true) {
      std::optional<JsonValue> value = parse_value();
      if (!value) return std::nullopt;
      arr.push_back(std::move(*value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return value_of(std::move(arr));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    ++pos_;  // opening '"'
    std::string out;
    while (true) {
      if (at_end()) {
        fail("unterminated string");
        return std::nullopt;
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) {
        fail("unterminated escape");
        return std::nullopt;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (at_end() || !std::isxdigit(
                                static_cast<unsigned char>(text_[pos_]))) {
              fail("invalid \\u escape");
              return std::nullopt;
            }
            const char h = text_[pos_++];
            code = code * 16 +
                   static_cast<unsigned>(
                       h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          // UTF-8 encode (surrogate pairs not combined; each half is
          // encoded standalone — the exporters never emit them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape character");
          return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (at_end() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
      return std::nullopt;
    }
    while (!at_end() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (consume('.')) {
      if (at_end() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit required after decimal point");
        return std::nullopt;
      }
      while (!at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (at_end() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("digit required in exponent");
        return std::nullopt;
      }
      while (!at_end() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    double value = 0.0;
    const auto result = std::from_chars(text_.data() + start,
                                        text_.data() + pos_, value);
    if (result.ec != std::errc{}) {
      fail("number out of range");
      return std::nullopt;
    }
    return value_of(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  return Parser(text).run(error);
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace grasp::obs
