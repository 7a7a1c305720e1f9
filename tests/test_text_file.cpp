/// The shared line walk and record format (util/text_file.hpp) through
/// the record format's two users: scenario files and timeline checkpoints.
/// Byte-exact text round trips, file/line/key context on every parse error,
/// checked file I/O, and the deterministic mutation pass of
/// support/mutation.hpp (truncation, byte flips, dropped and duplicated
/// lines, hostile numeric tokens) asserting that every variant parses or
/// throws photherm::Error — never another exception, never UB (the
/// sanitizer builds run this suite). The tools' text inputs get the same
/// pass in test_tool_inputs.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "support/fixtures.hpp"
#include "support/mutation.hpp"
#include "timeline/checkpoint.hpp"
#include "timeline/playback.hpp"
#include "util/error.hpp"
#include "util/text_file.hpp"

namespace photherm {
namespace {

using mutation::expect_parses_or_throws_error;
using mutation::mutants;
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
  // CRLF line ends read like LF ones; a missing value is a plain error.
  expect_error(scenarios, "scenario a\r\n\r\nt_ambient = hot\r\n", "scenario file, line 3",
               "t_ambient");
  expect_error(scenarios, "scenario a\nt_ambient =\n", "scenario file, line 2",
               "empty value for t_ambient");

  // A file's errors name its path.
  const std::string path =
      (std::filesystem::temp_directory_path() / "photherm_bad_scenarios.txt").string();
  write_text_file(path, "# header\nscenario a\nh_top = -\n", "test file");
  expect_error([](const std::string& p) { return scenario::load_scenario_file(p); }, path,
               "scenario file " + path + ", line 3", "h_top");
  std::filesystem::remove(path);
}

TEST(RecordFormat, IntegralFieldsRejectValuesTheirTypeCannotHold) {
  // ring_case is an int: the largest int keeps its value; 2^31 and 2^32 + 1
  // (which a 32-bit cast wraps to ring case 1) are rejected, naming the key.
  const auto ring_case = [](const std::string& value) {
    return scenario::parse_scenarios("scenario a\nring_case = " + value + "\n")
        .at(0)
        .design.ring_case_id;
  };
  EXPECT_EQ(ring_case("3"), 3);
  EXPECT_EQ(ring_case("2147483647"), 2147483647);
  for (const std::string value : {"2147483648", "4294967297"}) {
    try {
      ring_case(value);
      ADD_FAILURE() << "expected SpecError for ring_case = " << value;
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scenario file, line 2: `" + value + "` is out of range for ring_case"),
                std::string::npos)
          << what;
    }
  }
  // A 64-bit field holds every value the integer parser accepts.
  EXPECT_EQ(scenario::parse_scenarios("scenario a\nseed = 18446744073709551615\n")
                .at(0)
                .design.seed,
            18446744073709551615u);
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
