#include "common/toml.h"

#include <cstdio>
#include <map>
#include <string_view>

#include "common/error.h"
#include "common/strings.h"

namespace homp {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void TomlLine::fail(const std::string& why) const {
  throw ConfigError(std::string(what) + " line " + std::to_string(number) +
                    ": " + why);
}

std::string int_field_error(std::string_view text, std::errc ec, long long lo,
                            unsigned long long hi) {
  std::string need = "an integer";
  if (lo == 0 && text.starts_with('-')) {
    need = "an unsigned integer";
  } else if (ec == std::errc::result_out_of_range) {
    need += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  // from_chars read a whole number and stopped before the end.
  return "needs " + need + ", got '" + std::string(text) + "'" +
         (ec == std::errc() ? " (trailing characters after the number)" : "");
}

std::string read_double(const std::string& text, double& out) {
  std::size_t pos = 0;
  try {
    out = std::stod(text, &pos);
  } catch (const std::exception&) {  // pos stays 0
  }
  if (pos > 0 && pos == text.size()) return {};
  return "needs a number, got '" + text + "'" +
         (pos > 0 ? " (trailing characters after the number)" : "");
}

double TomlLine::as_double() const {
  double v = 0.0;
  const std::string why = read_double(value, v);
  if (why.empty()) return v;
  fail("'" + key + "' " + why);
}

bool TomlLine::as_bool() const {
  if (iequals(value, "true")) return true;
  if (iequals(value, "false")) return false;
  fail("'" + key + "' needs true/false, got '" + value + "'");
}

void read_toml(const std::string& text, const char* what,
               const std::function<void(TomlLine&)>& visit) {
  TomlLine l;
  l.what = what;
  // Headers so far and the current section's keys, each to its line. A
  // repeated header or key would replay with whichever copy came last.
  std::map<std::string, int> sections;
  std::map<std::string_view, int> keys;  // views into `text`
  std::size_t next = 0;
  while (next < text.size()) {
    ++l.number;
    std::string_view line = std::string_view(text).substr(next);
    line = line.substr(0, line.find('\n'));
    next += line.size() + 1;
    const std::string_view t = trim(line.substr(0, line.find('#')));
    if (t.empty()) continue;
    if (t.front() == '[') {
      if (t.back() != ']') l.fail("unterminated section header");
      // "[device  K40-0 ]" reads as section "device K40-0".
      const std::string_view inner = trim(t.substr(1, t.size() - 2));
      const auto space = inner.find(' ');
      l.section = inner.substr(0, space);
      if (space != std::string_view::npos) {
        l.section += ' ';
        l.section += trim(inner.substr(space + 1));
      }
      const auto [at, fresh] = sections.emplace(l.section, l.number);
      if (!fresh) {
        l.fail("duplicate section [" + l.section +
               "] (first declared at line " + std::to_string(at->second) + ")");
      }
      keys.clear();
      l.key.clear();
      l.value.clear();
    } else {
      const auto eq = t.find('=');
      if (eq == std::string_view::npos) {
        l.fail("expected 'key = value' or a section header");
      }
      const std::string_view key = trim(t.substr(0, eq));
      l.key = key;
      l.value = trim(t.substr(eq + 1));
      if (l.key.empty()) l.fail("empty key");
      if (sections.empty()) l.fail("key '" + l.key + "' outside any section");
      const auto [at, fresh] = keys.emplace(key, l.number);
      if (!fresh) {
        l.fail("duplicate key '" + l.key + "' (first at line " +
               std::to_string(at->second) + ")");
      }
    }
    l.consumed = false;
    visit(l);
    if (!l.key.empty() && !l.consumed) {
      l.fail("unknown key '" + l.key + "' in section [" + l.section + "]");
    }
  }
}

}  // namespace homp
