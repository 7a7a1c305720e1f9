/// The shared record format (util/text_file.hpp) through its two users:
/// scenario files and timeline checkpoints. Byte-exact text round trips,
/// file/line/key context on every parse error, checked file I/O, and a
/// deterministic mutation pass (truncation, byte flips, dropped and
/// duplicated lines, hostile numeric tokens) asserting that every variant
/// parses or throws photherm::Error — never another exception, never UB
/// (the sanitizer builds run this suite).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "support/fixtures.hpp"
#include "timeline/checkpoint.hpp"
#include "timeline/playback.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/text_file.hpp"

namespace photherm {
namespace {

using scenario::ScenarioSpec;

std::string corners_text() {
  return scenario::serialize_scenarios(scenario::builtin_suite("corners"));
}

/// A checkpoint of a burst playback paused mid-period (spp == 3, 4 steps),
/// on a 6 mm package grid so its fields stay a few hundred cells long.
std::string mid_period_checkpoint_text() {
  ScenarioSpec s;
  s.name = "burst";
  s.design = fixtures::coarse_onoc_spec();
  s.design.global_cell_xy = 6e-3;
  s.schedule = {{0.4, 1.0}, {0.2, 0.1}};
  timeline::PlaybackOptions options;
  options.time_step = 0.2;
  options.max_periods = 5;
  options.stop_on_settle = false;
  timeline::Playback playback(s, options);
  playback.run(4);
  return timeline::serialize_checkpoints({playback.checkpoint()});
}

/// A checkpoint taken after adaptive growth: every trace summary key
/// (settle, periodic, final_dt, dt_growths, reference_tolerance) is set.
std::string grown_checkpoint_text() {
  ScenarioSpec s;
  s.name = "soak";
  s.design = fixtures::coarse_onoc_spec();
  s.schedule = {{60.0, 1.0}};
  timeline::PlaybackOptions options;
  options.time_step = 0.5;
  options.max_periods = 50;
  options.settle_tolerance = 0.05;
  options.adaptive = true;
  timeline::Playback playback(s, options);
  while (!playback.finished() && playback.trace().dt_growths == 0) {
    playback.run(1);
  }
  playback.run(2);
  EXPECT_GE(playback.trace().dt_growths, 1u);
  return timeline::serialize_checkpoints({playback.checkpoint()});
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  lines.pop_back();  // the text ends in '\n'
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line + "\n";
  }
  return text;
}

/// [begin, end) of every numeric token in the value part of `line`.
std::vector<std::pair<std::size_t, std::size_t>> numeric_tokens(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) {
    return tokens;
  }
  const std::string numeric_chars = "0123456789.eE+-";
  std::size_t i = eq + 1;
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

constexpr std::array<const char*, 5> kHostileNumbers = {"-1", "1e300", "2.5", "0",
                                                         "18446744073709551616"};

/// Deterministic variants of `text`: every numeric key's first token swapped
/// for each hostile number, then `random_count` seeded random mutations
/// cycling through truncate / flip a byte / drop a line / duplicate a line /
/// swap a random numeric token.
std::vector<std::string> mutants(const std::string& text, std::uint64_t seed,
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

TEST(RecordFormat, SerializeOfParseIsByteExact) {
  const std::string corners = corners_text();
  EXPECT_EQ(scenario::serialize_scenarios(scenario::parse_scenarios(corners)), corners);

  const std::string grown = grown_checkpoint_text();
  EXPECT_NE(grown.find("dt_growths = "), std::string::npos);
  EXPECT_EQ(grown.find("dt_growths = 0\n"), std::string::npos);
  EXPECT_EQ(timeline::serialize_checkpoints(timeline::parse_checkpoints(grown)), grown);
}

TEST(RecordFormat, ErrorsNameTheFileTheLineAndTheKey) {
  const auto expect_error = [](const auto& parse, const std::string& text,
                               const std::string& where, const std::string& key) {
    try {
      parse(text);
      ADD_FAILURE() << "expected SpecError for:\n" << text;
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(where), std::string::npos) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  };
  const auto scenarios = [](const std::string& t) { return scenario::parse_scenarios(t); };
  const auto checkpoints = [](const std::string& t) { return timeline::parse_checkpoints(t); };

  expect_error(scenarios, "scenario a\n\nt_ambient = hot\n", "scenario file, line 3",
               "t_ambient");
  expect_error(checkpoints, "# c\nplayback a\nbase_dt = fast\n", "checkpoint file, line 3",
               "base_dt");
  expect_error(checkpoints, "playback a\nstate = 1 2 x\n", "checkpoint file, line 2", "state");
  expect_error(checkpoints, "playback a\nstats = 1 2 3\n", "checkpoint file, line 2", "stats");
  expect_error(checkpoints, "playback a\nbogus = 1\n", "checkpoint file, line 2", "bogus");
  expect_error(checkpoints, "base_dt = 1\n", "checkpoint file, line 1", "playback <name>");
}

TEST(RecordFormat, MutationsParseOrThrowError) {
  const std::vector<std::string> scenario_variants = mutants(corners_text(), 19, 200);
  const std::vector<std::string> checkpoint_variants =
      mutants(mid_period_checkpoint_text(), 20, 200);
  EXPECT_GT(scenario_variants.size(), 300u);
  EXPECT_GT(checkpoint_variants.size(), 300u);

  expect_parses_or_throws_error(scenario_variants, [](const std::string& text) {
    scenario::serialize_scenarios(scenario::parse_scenarios(text));
  });
  expect_parses_or_throws_error(checkpoint_variants, [](const std::string& text) {
    timeline::serialize_checkpoints(timeline::parse_checkpoints(text));
  });
}

TEST(TextFile, WriteThenReadRoundTripsAndMissingFilesThrow) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "photherm_text_file_test.txt").string();
  using namespace std::string_literals;
  const std::string payload = "line one\n\0binary\r\nend"s;
  write_text_file(path, payload, "test file");
  EXPECT_EQ(read_text_file(path, "test file"), payload);
  std::filesystem::remove(path);

  try {
    read_text_file(path, "test file");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open test file: " + path), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(write_text_file((dir / "no_such_dir" / "x.txt").string(), payload, "test file"),
               Error);
}

}  // namespace
}  // namespace photherm
