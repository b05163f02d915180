#include "fuzz/toml.h"

#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace homp::fuzz {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void TomlLine::fail(const std::string& why) const {
  throw ConfigError(std::string(what) + " line " + std::to_string(number) +
                    ": " + why);
}

long long TomlLine::as_ll() const {
  try {
    return std::stoll(value);
  } catch (...) {
    fail("'" + key + "' needs an integer, got '" + value + "'");
  }
}

std::uint64_t TomlLine::as_u64() const {
  try {
    return std::stoull(value);
  } catch (...) {
    fail("'" + key + "' needs an unsigned integer, got '" + value + "'");
  }
}

double TomlLine::as_double() const {
  try {
    return std::stod(value);
  } catch (...) {
    fail("'" + key + "' needs a number, got '" + value + "'");
  }
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
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++l.number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view t = trim(line);
    if (t.empty()) continue;
    if (t.front() == '[') {
      if (t.back() != ']') l.fail("unterminated section header");
      l.section = t.substr(1, t.size() - 2);
      l.key.clear();
      l.value.clear();
    } else {
      const auto eq = t.find('=');
      if (eq == std::string_view::npos) l.fail("expected key = value");
      l.key = trim(t.substr(0, eq));
      l.value = trim(t.substr(eq + 1));
      if (l.key.empty() || l.value.empty()) l.fail("empty key or value");
      if (l.section.empty()) {
        l.fail("key '" + l.key + "' outside any section");
      }
    }
    l.consumed = false;
    visit(l);
    if (!l.key.empty() && !l.consumed) {
      // "[fault.2]" reports as "[fault]", like the other numbered sections.
      l.fail("unknown [" + l.section.substr(0, l.section.find('.')) +
             "] key '" + l.key + "'");
    }
  }
}

}  // namespace homp::fuzz
