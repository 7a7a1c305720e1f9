/// \file mutation.hpp
/// \brief The deterministic mutation harness every text-input test shares:
/// seeded variants of a valid input (hostile numeric tokens, truncation,
/// byte flips, dropped and duplicated lines) and the "parses or throws
/// photherm::Error" check. In-process parsers take the variants directly;
/// the tools take them as files (test_tool_inputs.cpp).
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace photherm::mutation {

inline std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.back().empty()) {
    lines.pop_back();  // the text ends in '\n'
  }
  return lines;
}

inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line + "\n";
  }
  return text;
}

/// [begin, end) of every numeric token in `line`: in the value part of a
/// `key = value` line, anywhere in any other line (CSV cells, JSON values,
/// rule tolerances).
inline std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  const std::size_t eq = line.find('=');
  const std::string numeric_chars = "0123456789.eE+-";
  std::size_t i = eq == std::string::npos ? 0 : eq + 1;
  while (i < line.size()) {
    if (numeric_chars.find(line[i]) == std::string::npos) {
      ++i;
      continue;
    }
    std::size_t j = i;
    bool digit = false;
    while (j < line.size() && numeric_chars.find(line[j]) != std::string::npos) {
      digit = digit || (line[j] >= '0' && line[j] <= '9');
      ++j;
    }
    if (digit) {
      tokens.emplace_back(i, j);
    }
    i = j;
  }
  return tokens;
}

/// 4294967297 = 2^32 + 1 wraps to 1 in a 32-bit field; 2^64 overflows
/// every integer parser.
constexpr std::array<const char*, 6> kHostileNumbers = {
    "-1", "1e300", "2.5", "0", "4294967297", "18446744073709551616"};

/// Deterministic variants of `text`: every numeric line's first token
/// swapped for each hostile number, then `random_count` seeded random
/// mutations cycling through truncate / flip a byte / drop a line /
/// duplicate a line / swap a random numeric token.
inline std::vector<std::string> mutants(const std::string& text, std::uint64_t seed,
                                        int random_count) {
  const std::vector<std::string> lines = lines_of(text);
  std::vector<std::string> out;
  for (std::size_t l = 0; l < lines.size(); ++l) {
    const auto tokens = numeric_tokens(lines[l]);
    if (tokens.empty()) {
      continue;
    }
    for (const char* number : kHostileNumbers) {
      std::vector<std::string> mutated = lines;
      mutated[l].replace(tokens[0].first, tokens[0].second - tokens[0].first, number);
      out.push_back(join_lines(mutated));
    }
  }

  Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
  };
  for (int k = 0; k < random_count; ++k) {
    std::vector<std::string> mutated = lines;
    const std::size_t l = pick(lines.size());
    switch (k % 5) {
      case 0:
        out.push_back(text.substr(0, pick(text.size())));
        continue;
      case 1: {
        std::string flipped = text;
        flipped[pick(text.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
        out.push_back(flipped);
        continue;
      }
      case 2:
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(l));
        break;
      case 3:
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(l), lines[l]);
        break;
      default: {
        const auto tokens = numeric_tokens(lines[l]);
        if (tokens.empty()) {
          continue;
        }
        const auto& token = tokens[pick(tokens.size())];
        mutated[l].replace(token.first, token.second - token.first,
                           kHostileNumbers[pick(kHostileNumbers.size())]);
        break;
      }
    }
    out.push_back(join_lines(mutated));
  }
  return out;
}

/// Parse every variant; anything but success or photherm::Error fails.
template <typename Parse>
void expect_parses_or_throws_error(const std::vector<std::string>& variants, Parse parse) {
  for (std::size_t v = 0; v < variants.size(); ++v) {
    try {
      parse(variants[v]);
    } catch (const Error&) {
      // Rejected with a library error: the contract.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "variant " << v << " threw a non-photherm exception: " << e.what();
    }
  }
}

}  // namespace photherm::mutation
