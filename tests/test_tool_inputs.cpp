/// The tools' text inputs on the shared line walk (util/text_file.hpp): the
/// lint config in process (photherm_lint_lib), and photherm_report's gate
/// rules, metrics CSVs and JSON artifacts and photherm_cli diff's CSVs out
/// of process, by running the built tools on temporary files. Every error
/// names the file and the line in plain words (no requirement dump), and
/// the mutation pass of support/mutation.hpp never ends a tool any other
/// way than exit 0, 1 or 2: no signal, no sanitizer report.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint/config.hpp"
#include "lint/rules.hpp"
#include "support/mutation.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/text_file.hpp"

namespace photherm {
namespace {

namespace fs = std::filesystem;
using mutation::mutants;

const std::string kReport = PHOTHERM_REPORT_EXE;
const std::string kCli = PHOTHERM_CLI_EXE;
const fs::path kSource = PHOTHERM_SOURCE_DIR;

std::string source_text(const fs::path& relative) {
  return read_text_file((kSource / relative).string(), "test input");
}

/// A scratch directory for one test, removed with everything in it.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : dir_(fs::temp_directory_path() / ("photherm_" + name)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Write `text` to `name` in the directory; returns its path.
  std::string write(const std::string& name, const std::string& text) const {
    const std::string path = (dir_ / name).string();
    write_text_file(path, text, "test input");
    return path;
  }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }

 private:
  fs::path dir_;
};

struct ToolRun {
  int status = 0;      ///< the shell's exit status (128 + N for signal N)
  std::string output;  ///< stdout and stderr
};

/// Run a tool command line with its output captured in `log`. Sanitizer
/// reports abort, so they show as a signal rather than as exit 1.
ToolRun run_tool(const std::string& command, const std::string& log) {
  const std::string line = "UBSAN_OPTIONS=abort_on_error=1 ASAN_OPTIONS=abort_on_error=1 " +
                           command + " > '" + log + "' 2>&1";
  const int status = std::system(line.c_str());
  ToolRun run;
  run.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  run.output = read_text_file(log, "tool output");
  return run;
}

/// Expect `command` to fail with exit 2 and a plain error containing
/// `expected` (the file, the line and the message).
void expect_tool_error(const ScratchDir& dir, const std::string& command,
                       const std::string& expected) {
  const ToolRun run = run_tool(command, dir.path("log.txt"));
  EXPECT_EQ(run.status, 2) << command << "\n" << run.output;
  EXPECT_NE(run.output.find(expected), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("requirement"), std::string::npos) << run.output;
}

/// Run `command_for(path)` on every variant written to `path`; each run must
/// exit 0, 1 or 2 without a sanitizer report.
template <typename Command>
void expect_tool_survives(const ScratchDir& dir, const std::vector<std::string>& variants,
                          const std::string& name, Command command_for) {
  const std::string path = dir.path(name);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    write_text_file(path, variants[v], "test input");
    const std::string command = command_for(path);
    const ToolRun run = run_tool(command, dir.path("log.txt"));
    EXPECT_TRUE(run.status == 0 || run.status == 1 || run.status == 2)
        << "variant " << v << ": `" << command << "` exited " << run.status << "\n"
        << run.output << "\ninput:\n"
        << variants[v];
    EXPECT_EQ(run.output.find("runtime error"), std::string::npos) << run.output;
  }
}

/// Every `stride`-th variant: the out-of-process pass starts one process
/// per variant, so the large artifacts are sampled.
std::vector<std::string> every(std::size_t stride, const std::vector<std::string>& variants) {
  std::vector<std::string> out;
  for (std::size_t v = 0; v < variants.size(); v += stride) {
    out.push_back(variants[v]);
  }
  return out;
}

/// A trace JSON with spans, a scenario span, an instant and two solves'
/// residual counter tracks: every branch `summarize` and `convergence` read.
std::string sample_trace() {
  telemetry::reset();
  telemetry::set_enabled(true);
  {
    telemetry::Span scenario("batch.scenario", "corner_a");
    telemetry::Span solve("solver.conjugate_gradient");
    for (int solve_index = 0; solve_index < 2; ++solve_index) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        telemetry::counter("solver.residual", 1.0 / static_cast<double>(k + 1), k);
      }
    }
    telemetry::instant("checkpoint.pauses");
  }
  std::string json = telemetry::trace_json();
  telemetry::set_enabled(false);
  telemetry::reset();
  return json;
}

std::set<std::string> known_rules() {
  std::set<std::string> names;
  for (const lint::RuleInfo& rule : lint::rules()) {
    names.insert(rule.name);
  }
  return names;
}

TEST(LintConfig, ErrorsNameTheFileAndTheLine) {
  const ScratchDir dir("lint_config_errors");
  const auto expect_error = [&](const std::string& text, const std::string& where) {
    const std::string path = dir.write("lint.rules", text);
    try {
      lint::load_config(path, known_rules());
      ADD_FAILURE() << "expected SpecError for:\n" << text;
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("lint config " + path + ", line " + where), std::string::npos)
          << what;
      EXPECT_EQ(what.find("requirement"), std::string::npos) << what;
    }
  };
  expect_error("serialized a.cpp\r\nfrobnicate b.cpp\r\n", "2: unknown directive `frobnicate`");
  expect_error("layer util\nlayer core util mesh  # mesh is never declared\n",
               "2: layer `core` depends on undeclared layer `mesh`");
  expect_error("layer a b\n\n# b closes the loop\nlayer b a\n",
               "4: layer dependency cycle through `a`");
  expect_error("layer util\nmodule core x.cpp\n",
               "2: `module core ...` names an undeclared layer");
  expect_error("allow no_such_rule x.cpp\n", "1: unknown rule `no_such_rule`");
  expect_error("serialized\n", "1: `serialized` needs a path suffix");
}

TEST(LintConfig, MutationsParseOrThrowError) {
  const ScratchDir dir("lint_config_mutations");
  const std::set<std::string> rules = known_rules();
  for (const char* config : {"tools/photherm_lint.rules", "tests/lint/fixtures.rules"}) {
    const std::vector<std::string> variants = mutants(source_text(config), 21, 150);
    EXPECT_GE(variants.size(), 100u);
    mutation::expect_parses_or_throws_error(variants, [&](const std::string& text) {
      lint::load_config(dir.write("lint.rules", text), rules);
    });
  }
}

TEST(GateRules, ErrorsNameTheFileAndTheLine) {
  const ScratchDir dir("gate_rule_errors");
  const std::string base = (kSource / "tests/report/baseline_metrics.csv").string();
  const auto expect_error = [&](const std::string& text, const std::string& where) {
    const std::string path = dir.write("gate.rules", text);
    expect_tool_error(dir, kReport + " diff " + base + " " + base + " --gate " + path,
                      "gate rules file " + path + ", line " + where);
  };
  expect_error("exact solver.*\nfail *.wall\n", "2: `fail` needs a relative tolerance");
  expect_error("# typo below\n\nfial *.wall 0.5\n", "3: unknown action `fial`");
  expect_error("warn *.wall 0.5 0.7\n", "1: trailing tokens after the rule");
  expect_error("warn *.wall half\n", "1: cannot parse `half` as a number for the tolerance");
}

TEST(MetricsCsv, ErrorsNameTheFileAndTheLine) {
  const ScratchDir dir("metrics_csv_errors");
  const auto expect_error = [&](const std::string& text, const std::string& where) {
    const std::string path = dir.write("metrics.csv", text);
    expect_tool_error(dir, kReport + " summarize " + path,
                      "metrics CSV " + path + ", line " + where);
  };
  expect_error("# photherm-manifest v1\nname,kind,count,total\n",
               "2: not a photherm metrics CSV (header must start with `metric`)");
  expect_error("metric,kind,count,total\r\nspmv.calls,counter,1,lots\r\n",
               "2: `total` of `spmv.calls` is not a number: `lots`");
  expect_error("# build_type=release\n", "2: end of file before the `metric` header");
}

TEST(JsonArtifacts, DeepNestingIsAnErrorNotACrash) {
  // 200,000 open arrays overflowed the recursive-descent parser's stack.
  const ScratchDir dir("json_depth");
  const std::string path =
      dir.write("deep.json", "{\"benchmarks\":" + std::string(200000, '['));
  // '{' opens level 1 and the k-th '[' (byte 13 + k) level k + 1, so the
  // 256th '[' at byte 269 is the first past the cap.
  expect_tool_error(dir, kReport + " summarize " + path,
                    path + ": JSON parse error at byte 269: nesting deeper than 256 levels");
}

TEST(CliDiff, InfiniteCellsMatchOnlyThemselves) {
  // With an infinite cell the tolerance scale max(1, |a|, |b|) is inf, so
  // a tolerance test alone would let a blow-up match any number.
  const ScratchDir dir("cli_diff_inf");
  const auto diff_status = [&](const std::string& a, const std::string& b) {
    const std::string left = dir.write("a.csv", "value\n" + a + "\n");
    const std::string right = dir.write("b.csv", "value\n" + b + "\n");
    return run_tool(kCli + " diff " + left + " " + right + " --tol 1e-4", dir.path("log.txt"))
        .status;
  };
  EXPECT_EQ(diff_status("inf", "5"), 1);
  EXPECT_EQ(diff_status("5", "inf"), 1);
  EXPECT_EQ(diff_status("inf", "-inf"), 1);
  EXPECT_EQ(diff_status("inf", "inf"), 0);
  EXPECT_EQ(diff_status("5", "5.0001"), 0);
}

TEST(ToolInputs, MutationsExitCleanly) {
  const ScratchDir dir("tool_mutations");
  const std::string report_dir = (kSource / "tests/report").string();
  const std::string base = report_dir + "/baseline_metrics.csv";
  const std::string regressed = report_dir + "/candidate_regressed.csv";
  const std::string rules = report_dir + "/metrics_gate.rules";

  // Gate rules, against a candidate with real deltas so every action fires.
  expect_tool_survives(dir, mutants(source_text("tests/report/metrics_gate.rules"), 22, 60),
                       "gate.rules", [&](const std::string& path) {
                         return kReport + " diff " + base + " " + regressed + " --gate " + path;
                       });

  // Metrics CSVs: summarized, and diffed under the gate.
  const std::vector<std::string> metrics =
      mutants(source_text("tests/report/baseline_metrics.csv"), 23, 60);
  expect_tool_survives(dir, metrics, "metrics.csv", [&](const std::string& path) {
    return kReport + " summarize " + path;
  });
  expect_tool_survives(dir, metrics, "metrics.csv", [&](const std::string& path) {
    return kReport + " diff " + base + " " + path + " --gate " + rules;
  });

  // CSV diffs of a golden table at a tolerance.
  const std::string golden = (kSource / "tests/golden/scenario_smoke.csv").string();
  expect_tool_survives(dir, mutants(source_text("tests/golden/scenario_smoke.csv"), 24, 60),
                       "table.csv", [&](const std::string& path) {
                         return kCli + " diff " + golden + " " + path + " --tol 1e-4";
                       });

  // JSON artifacts: a bench JSON (sampled: it has hundreds of numeric
  // lines) summarized and diffed, and a trace summarized and rebuilt into
  // convergence rows.
  const std::string bench = (kSource / "BENCH_solver.json").string();
  const std::string bench_rules = (kSource / "bench/gate.rules").string();
  const std::vector<std::string> benches =
      every(9, mutants(source_text("BENCH_solver.json"), 25, 200));
  EXPECT_GE(benches.size(), 100u);
  expect_tool_survives(dir, benches, "bench.json", [&](const std::string& path) {
    return kReport + " summarize " + path;
  });
  expect_tool_survives(dir, every(2, benches), "bench.json", [&](const std::string& path) {
    return kReport + " diff " + bench + " " + path + " --gate " + bench_rules;
  });
  const std::vector<std::string> traces = mutants(sample_trace(), 26, 60);
  expect_tool_survives(dir, traces, "trace.json", [&](const std::string& path) {
    return kReport + " summarize " + path;
  });
  expect_tool_survives(dir, traces, "trace.json", [&](const std::string& path) {
    return kReport + " convergence " + path;
  });
}

}  // namespace
}  // namespace photherm
