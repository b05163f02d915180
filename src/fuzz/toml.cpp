#include "fuzz/toml.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/strings.h"

namespace homp::fuzz {

namespace {

/// `parse(text, &pos)` over the whole of `l.value`: a failed parse or
/// characters after the number ("2x") fail the line with `need`.
template <class Parse>
auto whole_number(const TomlLine& l, const char* need, Parse parse) {
  std::size_t pos = 0;
  try {
    const auto v = parse(l.value, &pos);
    if (pos == l.value.size()) return v;
  } catch (...) {
  }
  l.fail("'" + l.key + "' needs " + need + ", got '" + l.value + "'");
}

}  // namespace

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
  return whole_number(*this, "an integer",
                      [](auto& s, auto* p) { return std::stoll(s, p); });
}

std::uint64_t TomlLine::as_u64() const {
  // stoull wraps a minus sign ("-1" reads as 2^64 - 1); leaving `pos` at
  // 0 fails the line instead.
  return whole_number(*this, "an unsigned integer", [](auto& s, auto* p) {
    return s.front() == '-' ? 0ull : std::stoull(s, p);
  });
}

double TomlLine::as_double() const {
  return whole_number(*this, "a number",
                      [](auto& s, auto* p) { return std::stod(s, p); });
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
  std::map<std::pair<std::string, std::string>, int> seen;  // -> first line
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
      // A repeated key would replay with whichever copy came last.
      const auto [at, fresh] = seen.emplace(std::pair(l.section, l.key),
                                            l.number);
      if (!fresh) {
        l.fail("duplicate key '" + l.key + "' (first at line " +
               std::to_string(at->second) + ")");
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
