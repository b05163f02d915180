#include "advise/json.h"

#include <cstdlib>

#include "common/error.h"
#include "common/strings.h"

namespace homp::advise {

namespace {

/// Recursive-descent parser over a complete in-memory document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      throw ParseError("trailing content after JSON document", pos_);
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw ParseError("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json::make_null();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Json>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json::make_object(std::move(members));
    }
  }

  Json parse_array() {
    expect('[');
    std::vector<Json> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // HOMP writers only ever emit \u00XX (control characters), but
          // decode the full BMP as UTF-8 for robustness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool any = false;
    auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      digits();
    }
    if (!any) {
      pos_ = start;
      fail("invalid value");
    }
    // strtod round-trips the %.17g the writers emit exactly.
    const std::string tok = text_.substr(start, pos_ - start);
    return Json::make_number(std::strtod(tok.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::number_or(const std::string& key, double fallback) const noexcept {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

const std::string& Json::string_or_empty(const std::string& key) const noexcept {
  static const std::string kEmpty;
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->string() : kEmpty;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

Json Json::parse_file(const std::string& path) {
  return parse(read_file(path, "JSON file"));
}

Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.num_ = b ? 1.0 : 0.0;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::make_array(std::vector<Json> items) {
  Json j;
  j.type_ = Type::kArray;
  j.arr_ = std::move(items);
  return j;
}

Json Json::make_object(std::vector<std::pair<std::string, Json>> members) {
  Json j;
  j.type_ = Type::kObject;
  j.obj_ = std::move(members);
  return j;
}

}  // namespace homp::advise
