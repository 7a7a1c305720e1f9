/// \file string_util.hpp
/// \brief Formatting helpers shared by reports and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace photherm {

/// printf-style float with fixed decimals, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double value, int decimals);

/// Shortest decimal spelling that parses back to exactly the same double
/// (std::to_chars round-trip guarantee): serialize/parse round-trips are
/// bit-identical while common values stay readable ("0.3", not
/// "0.29999999999999999"). The scenario files and timeline checkpoints both
/// rely on this for their exact text round-trips.
std::string format_shortest(double value);

/// Human-readable SI formatting of a power in watts ("3.6 mW", "25 W").
std::string format_power(double watts);

/// Human-readable SI formatting of a length in metres ("15 um", "3.2 mm").
std::string format_length(double metres);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Lower-cased copy (ASCII).
std::string to_lower(std::string s);

/// View of `s` with ASCII whitespace stripped from both ends (no copy).
std::string_view trim_view(std::string_view s);

/// Copy with ASCII whitespace stripped from both ends.
std::string trim(std::string_view s);

/// Split on a delimiter character; empty fields are kept ("a,,b" gives
/// three parts) and an empty input gives one empty part.
std::vector<std::string> split(const std::string& s, char delim);

/// The whitespace-separated words of `s` (none for a blank string).
std::vector<std::string> split_words(std::string_view s);

/// The whole (trimmed) string as one number (any strtod spelling, "inf"
/// and "nan" included), or nullopt.
std::optional<double> parse_number(std::string_view s);

/// parse_number, also requiring a finite value; throws photherm::SpecError
/// naming `what` otherwise.
double parse_double(const std::string& s, const std::string& what);

/// Parse a non-negative integer the same way, rejecting values above `max`.
std::uint64_t parse_uint(const std::string& s, const std::string& what,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Parse "true"/"false"/"1"/"0" (case-insensitive).
bool parse_bool(const std::string& s, const std::string& what);

}  // namespace photherm
