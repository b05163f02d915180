#include "common/strings.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace homp {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_top_level(std::string_view s, char sep) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || (s[i] == sep && depth == 0)) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
      continue;
    }
    const char c = s[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

long long parse_scaled_int(std::string_view raw) {
  std::string_view s = trim(raw);
  if (s.empty()) throw ConfigError("empty integer literal");
  long long mult = 1;
  const char last = s.back();
  if (last == 'k' || last == 'K') {
    mult = 1000;
    s.remove_suffix(1);
  } else if (last == 'm' || last == 'M') {
    mult = 1000000;
    s.remove_suffix(1);
  } else if (last == 'g' || last == 'G') {
    mult = 1000000000;
    s.remove_suffix(1);
  }
  if (s.empty()) {
    throw ConfigError("integer literal is only a suffix: '" +
                      std::string(raw) + "'");
  }
  long long value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw ConfigError("malformed integer literal: '" + std::string(raw) +
                        "'");
    }
    value = value * 10 + (c - '0');
  }
  return value * mult;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out += parts[i];
  }
  return out;
}

std::string format_bytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f %s", bytes, units[u]);
  return buf;
}

std::string format_seconds(double seconds) {
  char buf[48];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.1f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", seconds);
  }
  return buf;
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  if (!in.good()) throw ConfigError("cannot open " + what + ": " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace homp
