#ifndef HOMP_COMMON_JSON_H
#define HOMP_COMMON_JSON_H

/// \file json.h
/// The one JSON writing rule every exporter shares (metrics, traces,
/// audits, serve reports, advisor reports, fuzz summaries): strings are
/// fully escaped, so no label or detail text can break a document, and
/// numbers render deterministically, so exports are byte-identical across
/// runs.

#include <ostream>
#include <string>
#include <string_view>

namespace homp {

/// Write `s` JSON-escaped, without surrounding quotes: quote and
/// backslash get a backslash, \b \f \n \r \t their short forms, and every
/// other control character becomes \u00XX.
void json_escape(std::ostream& os, std::string_view s);

/// `s` as a quoted, escaped JSON string.
std::string json_quote(std::string_view s);

/// Deterministic number rendering: integral values below 1e15 print
/// without a fraction, everything else round-trips through %.17g.
std::string json_number(double v);

}  // namespace homp

#endif  // HOMP_COMMON_JSON_H
