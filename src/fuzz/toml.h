#ifndef HOMP_FUZZ_TOML_H
#define HOMP_FUZZ_TOML_H

/// \file toml.h
/// The repro-file format under both homp-fuzz modes: `[section]`
/// headers, `key = value` lines and `#` comments.
///
/// Each mode lists a section's keys once, in file order, as a field list:
/// a function template `fields(v, x)` calling `v(key, field)`, or
/// `v(key, field, parse)` for a field with its own text form. The writer
/// passes a TomlWriter; the parser passes each TomlLine read_toml hands
/// it, which stores the field its key names.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>

namespace homp::fuzz {

/// A double at %.17g, so repro files round-trip exactly.
std::string fmt_double(double v);

/// One header or key line of a repro file, as read_toml hands it over.
struct TomlLine {
  const char* what = "";  ///< file kind for messages ("scenario", ...)
  int number = 0;         ///< 1-based line number
  std::string section;    ///< enclosing section; the new one on a header
  std::string key;        ///< empty on a section header
  std::string value;
  bool consumed = false;  ///< a field-list entry took this key

  /// Throw ConfigError "<what> line <number>: <why>".
  [[noreturn]] void fail(const std::string& why) const;

  long long as_ll() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  bool as_bool() const;

  /// Field-list entry: when this line's key is `name`, store its value in
  /// `field`, through `parse` if given, else by the field's type.
  /// Integers read through as_ll; the 64-bit seeds pass as_u64.
  template <class T, class... Parse>
  void operator()(const char* name, T& field, const Parse&... parse) {
    if (key != name) return;
    consumed = true;
    if constexpr (sizeof...(Parse) > 0) field = std::invoke(parse..., *this);
    else if constexpr (std::is_same_v<T, bool>) field = as_bool();
    else if constexpr (std::is_floating_point_v<T>) field = as_double();
    else if constexpr (std::is_same_v<T, std::string>) field = value;
    else field = static_cast<T>(as_ll());
  }
};

/// Field-list visitor printing `key = value` lines: integers and strings
/// as they are, doubles through fmt_double, bools as true/false and enums
/// through their to_string().
struct TomlWriter {
  std::ostream& os;

  template <class T, class... Parse>
  void operator()(const char* key, const T& v, const Parse&...) const {
    os << key << " = ";
    if constexpr (std::is_same_v<T, bool>) os << (v ? "true" : "false");
    else if constexpr (std::is_floating_point_v<T>) os << fmt_double(v);
    else if constexpr (std::is_enum_v<T>) os << to_string(v);
    else os << v;
    os << "\n";
  }
};

/// Call `visit` for every section header and `key = value` line of
/// `text`, in order. Malformed lines, keys outside any section and keys
/// `visit` leaves unconsumed throw through TomlLine::fail.
void read_toml(const std::string& text, const char* what,
               const std::function<void(TomlLine&)>& visit);

/// A parsed repro file: the scenario (machine left empty — load it from
/// `machine_file`) plus the failure it records.
template <class Spec>
struct ParsedRepro {
  Spec scenario;
  std::string machine_file;
  std::string invariant;
  std::string algorithm;  ///< recorded by single-offload repros only
};

}  // namespace homp::fuzz

#endif  // HOMP_FUZZ_TOML_H
