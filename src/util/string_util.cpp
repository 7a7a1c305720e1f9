#include "util/string_util.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace photherm {

std::string format_fixed(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string format_shortest(double value) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  PH_REQUIRE(r.ec == std::errc(), "cannot format a double");
  return std::string(buf, r.ptr);
}

namespace {
std::string format_si(double value, const char* unit, double scale_milli, double scale_micro) {
  std::ostringstream os;
  const double mag = std::abs(value);
  if (mag >= 1.0 || mag == 0.0) {
    os << format_fixed(value, 3) << " " << unit;
  } else if (mag >= scale_milli) {
    os << format_fixed(value * 1e3, 3) << " m" << unit;
  } else if (mag >= scale_micro) {
    os << format_fixed(value * 1e6, 3) << " u" << unit;
  } else {
    os << format_fixed(value * 1e9, 3) << " n" << unit;
  }
  return os.str();
}
}  // namespace

std::string format_power(double watts) { return format_si(watts, "W", 1e-3, 1e-6); }

std::string format_length(double metres) { return format_si(metres, "m", 1e-3, 1e-6); }

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  return s;
}

namespace {
/// The characters std::isspace accepts in the "C" locale.
constexpr std::string_view kSpaces = " \t\n\v\f\r";
}  // namespace

std::string_view trim_view(std::string_view s) {
  const std::size_t first = s.find_first_not_of(kSpaces);
  return first == std::string_view::npos
             ? std::string_view()
             : s.substr(first, s.find_last_not_of(kSpaces) - first + 1);
}

std::string trim(std::string_view s) { return std::string(trim_view(s)); }

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_words(std::string_view s) {
  std::vector<std::string> words;
  std::size_t begin = s.find_first_not_of(kSpaces);
  while (begin != std::string_view::npos) {
    const std::size_t end = s.find_first_of(kSpaces, begin);
    words.emplace_back(s.substr(begin, end - begin));
    begin = s.find_first_not_of(kSpaces, end);
  }
  return words;
}

std::optional<double> parse_number(std::string_view s) {
  const std::string text = trim(s);
  if (text.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return value;
}

double parse_double(const std::string& s, const std::string& what) {
  const std::optional<double> value = parse_number(s);
  if (!value) {
    const std::string text = trim(s);
    throw SpecError(text.empty() ? "empty value for " + what
                                 : "cannot parse `" + text + "` as a number for " + what);
  }
  // Rejects "inf"/"nan" and overflowed literals like 1e999: non-finite
  // inputs must fail here, not deep inside a solver.
  if (!std::isfinite(*value)) {
    throw SpecError("`" + trim(s) + "` is not a finite number for " + what);
  }
  return *value;
}

std::uint64_t parse_uint(const std::string& s, const std::string& what, std::uint64_t max) {
  const std::string text = trim(s);
  if (text.empty()) {
    throw SpecError("empty value for " + what);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || text[0] == '-' || errno == ERANGE) {
    throw SpecError("cannot parse `" + text + "` as a non-negative 64-bit integer for " + what);
  }
  if (value > max) {
    throw SpecError("`" + text + "` is out of range for " + what + " (at most " +
                    std::to_string(max) + ")");
  }
  return static_cast<std::uint64_t>(value);
}

bool parse_bool(const std::string& s, const std::string& what) {
  const std::string text = to_lower(trim(s));
  if (text == "true" || text == "1") {
    return true;
  }
  if (text == "false" || text == "0") {
    return false;
  }
  throw SpecError("cannot parse `" + trim(s) + "` as a boolean for " + what);
}

}  // namespace photherm
