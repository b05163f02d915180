#ifndef HOMP_COMMON_TOML_H
#define HOMP_COMMON_TOML_H

/// \file toml.h
/// The one reader of the `[section]` / `key = value` / `#` format, under
/// machine description files (machine/parser.h) and homp-fuzz repro files.
///
/// Each format lists a section's keys once, in file order, as a field list:
/// a function template `fields(v, x)` calling `v(key, field)`, or
/// `v(key, field, form)` for a field with its own text form. The writer
/// passes a writing visitor; the parser passes each TomlLine read_toml
/// hands it (or a visitor around one), which stores the field its key names.
///
/// Every rule fails as `<what> line N: ...`: a header needs its ']' and may
/// not repeat; a key needs a section, may appear once in it and must be
/// taken by an entry; a number must be the whole value, and an integer must
/// fit its field's type. An empty value reaches its field as it is.
///
/// The number rules are also free functions (read_int, read_double), so a
/// reader of another format (the throughput history's TAB fields) holds
/// its fields to the same rule.

#include <charconv>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/strings.h"

namespace homp {

/// A double at %.17g, so repro files round-trip exactly.
std::string fmt_double(double v);

/// What an integer field of range [lo, hi] needs, for read_int.
std::string int_field_error(std::string_view text, std::errc ec, long long lo,
                            unsigned long long hi);

/// Read all of `text` as a decimal integer of type T (digits after an
/// optional '-') into `out`. Returns "" on success, else what the field
/// needs: "needs an integer, got '2x' (trailing characters after the
/// number)". A fraction ("2.7") and a value T cannot hold fail too.
template <class T>
std::string read_int(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc() && stop == end) return {};
  return int_field_error(text, ec, std::numeric_limits<T>::min(),
                         std::numeric_limits<T>::max());
}

/// Read all of `text` as a double (std::stod's syntax) into `out`, under
/// read_int's rule: "" on success, else "needs a number, got '...'".
std::string read_double(const std::string& text, double& out);

/// One header or key line, as read_toml hands it over.
struct TomlLine {
  const char* what = "";  ///< file kind for messages ("scenario", ...)
  int number = 0;         ///< 1-based line number
  std::string section;    ///< enclosing section; the new one on a header
  std::string key;        ///< empty on a section header
  std::string value;
  bool consumed = false;  ///< a field-list entry took this key

  /// Throw ConfigError "<what> line <number>: <why>".
  [[noreturn]] void fail(const std::string& why) const;

  double as_double() const;
  bool as_bool() const;

  /// The value as a whole decimal integer of type T (read_int): a
  /// fraction ("2.7"), other characters after the digits or a value T
  /// cannot hold fails the line.
  template <class T>
  T as_int() const {
    T v{};
    const std::string why = read_int(value, v);
    if (why.empty()) return v;
    fail("'" + key + "' " + why);
  }

  /// The value as the enumerator of E in [0, N) whose to_string() it
  /// names, ignoring case.
  template <class E, int N>
  E as_enum() const {
    for (int k = 0; k < N; ++k) {
      const auto e = static_cast<E>(k);
      if (iequals(value, to_string(e))) return e;
    }
    fail("unknown " + key + " '" + value + "'");
  }

  /// Field-list entry: when this line's key is `name`, store its value in
  /// `field`, through `parse` if given, else by the field's type.
  template <class T, class... Parse>
  void operator()(const char* name, T& field, const Parse&... parse) {
    if (key != name) return;
    consumed = true;
    if constexpr (sizeof...(Parse) > 0) field = std::invoke(parse..., *this);
    else if constexpr (std::is_same_v<T, bool>) field = as_bool();
    else if constexpr (std::is_floating_point_v<T>) field = as_double();
    else if constexpr (std::is_same_v<T, std::string>) field = value;
    else field = as_int<T>();
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
/// `text`, in order; a line breaking a rule above, a key `visit` leaves
/// unconsumed included, throws through TomlLine::fail.
void read_toml(const std::string& text, const char* what,
               const std::function<void(TomlLine&)>& visit);

}  // namespace homp

#endif  // HOMP_COMMON_TOML_H
