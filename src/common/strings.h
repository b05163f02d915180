#ifndef HOMP_COMMON_STRINGS_H
#define HOMP_COMMON_STRINGS_H

/// \file strings.h
/// String helpers shared by the pragma parser, the section/key reader
/// (toml.h) and the file loaders.

#include <string>
#include <string_view>
#include <vector>

namespace homp {

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Split on `sep`, trimming each piece. Empty pieces are preserved
/// ("a,,b" -> {"a", "", "b"}) so callers can diagnose stray separators.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on `sep` but only at depth zero with respect to (), [] nesting —
/// needed for clause lists like "map(to: x[0:n] partition([BLOCK]), a, n)".
std::vector<std::string> split_top_level(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Case-insensitive equality for ASCII.
bool iequals(std::string_view a, std::string_view b);

/// Concatenate `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parse a non-negative integer with a suffix multiplier (k/K=1e3, m/M=1e6,
/// g/G=1e9), used for workload sizes like "300M" and "48k".
/// Throws homp::ConfigError on malformed input.
long long parse_scaled_int(std::string_view s);

/// Render bytes with a binary-unit suffix for diagnostics ("1.50 MiB").
std::string format_bytes(double bytes);

/// Render seconds adaptively ("12.3 us", "4.56 ms", "1.23 s").
std::string format_seconds(double seconds);

/// The whole file at `path`. Throws ConfigError("cannot open <what>:
/// <path>") if it cannot be opened.
std::string read_file(const std::string& path, const std::string& what);

}  // namespace homp

#endif  // HOMP_COMMON_STRINGS_H
