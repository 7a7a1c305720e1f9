/// Throughput of the scenario batch runner with the solve cache off vs on.
/// The suite is the builtin "corners" suite (traffic patterns, ambient
/// corners, WDM ladder): the WDM-ladder scenarios differ only in SNR knobs,
/// so with the cache on they share one coarse global solve and one thermal
/// report (the fine ONI windows included). Verifies that cached results
/// reproduce the cold solves bit for bit and reports scenarios/sec, the
/// cache hit rate and the number of thermal problems actually solved.
/// PHOTHERM_FAST=1 drops to the 4-scenario smoke suite.
///
/// `--benchmark_format=json` swaps the human table for Google-Benchmark-
/// shaped JSON (context + benchmarks array, one entry per configuration),
/// so the CI perf-artifact job can collect this plain binary alongside the
/// real gbench ones and photherm_report can diff the runs.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace {

/// One gbench-shaped `benchmarks` entry per batch configuration: wall time
/// plus the cache economics as user counters. The deterministic counters
/// (global_solves, cache_hits, thermal_solves, scenarios) are what the
/// regression gate can pin exactly; the rates are informational.
struct JsonRow {
  std::string name;
  double seconds = 0.0;
  double scenarios = 0.0;
  double global_solves = 0.0;
  double cache_hits = 0.0;
  double thermal_solves = 0.0;
};

void emit_json(std::ostream& os, const std::vector<JsonRow>& rows) {
  using photherm::format_shortest;
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"bench_scenario_batch\",\n"
#ifdef NDEBUG
     << "    \"photherm_build_type\": \"release\"\n"
#else
     << "    \"photherm_build_type\": \"debug\"\n"
#endif
     << "  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    os << "    {\n"
       << "      \"name\": \"" << row.name << "\",\n"
       << "      \"run_name\": \"" << row.name << "\",\n"
       << "      \"run_type\": \"iteration\",\n"
       << "      \"repetitions\": 1,\n"
       << "      \"iterations\": 1,\n"
       << "      \"real_time\": " << format_shortest(row.seconds) << ",\n"
       << "      \"cpu_time\": " << format_shortest(row.seconds) << ",\n"
       << "      \"time_unit\": \"s\",\n"
       << "      \"scenarios\": " << format_shortest(row.scenarios) << ",\n"
       << "      \"global_solves\": " << format_shortest(row.global_solves) << ",\n"
       << "      \"cache_hits\": " << format_shortest(row.cache_hits) << ",\n"
       << "      \"thermal_solves\": " << format_shortest(row.thermal_solves) << ",\n"
       << "      \"scenarios_per_second\": "
       << format_shortest(row.seconds > 0.0 ? row.scenarios / row.seconds : 0.0) << "\n"
       << "    }" << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace photherm;
  using Clock = std::chrono::steady_clock;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--benchmark_format=json") {
      json = true;
    } else {
      std::cerr << "bench_scenario_batch: unknown option `" << argv[i]
                << "` (supported: --benchmark_format=json)\n";
      return 2;
    }
  }
  const bool fast = std::getenv("PHOTHERM_FAST") != nullptr;

  const std::string suite_name = fast ? "smoke" : "corners";
  auto suite = scenario::builtin_suite(suite_name);
  if (fast) {
    // The smoke suite's traffic patterns are all thermally distinct; append
    // a WDM ladder on the uniform scenario so the cache has shareable work.
    scenario::FamilySpec wdm;
    wdm.family = "wdm_ladder";
    wdm.base = suite.front();
    for (scenario::ScenarioSpec& s : scenario::expand_family(wdm)) {
      suite.push_back(std::move(s));
    }
  }
  if (!json) {
    std::cout << "scenario batch throughput: builtin:" << suite_name << " ("
              << suite.size() << " scenarios), " << util::concurrency() << " threads\n\n";
  }

  Table table({"configuration", "wall time (s)", "scenarios/s", "global solves",
               "cache hits", "hit rate", "thermal solves", "bit-identical"});

  // Reference: serial and cold. The other configurations must reproduce its
  // CSV bit for bit — across the cache dimension *and* the thread count.
  struct Config {
    const char* label;
    const char* bench_name;
    std::size_t threads;
    bool cached;
  };
  const Config configs[] = {
      {"1 thread, cache off", "scenario_batch/serial_cold", 1, false},
      {"N threads, cache off", "scenario_batch/threaded_cold", 0, false},
      {"N threads, cache on", "scenario_batch/threaded_cached", 0, true},
  };

  std::string reference_csv;
  std::size_t hits_with_cache = 0;
  std::vector<JsonRow> json_rows;
  for (const Config& config : configs) {
    scenario::BatchOptions options;
    options.threads = config.threads;
    options.share_global_solves = config.cached;
    const auto start = Clock::now();
    const scenario::BatchResult result = scenario::BatchRunner(options).run(suite);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();

    const std::string csv = scenario::batch_table(suite, result).to_csv();
    if (reference_csv.empty()) {
      reference_csv = csv;
    }
    const bool identical = csv == reference_csv;
    if (config.cached) {
      hits_with_cache = result.stats.cache_hits;
    }
    const double n = static_cast<double>(suite.size());
    table.add_row({std::string(config.label), seconds, seconds > 0.0 ? n / seconds : 0.0,
                   static_cast<double>(result.stats.global_solves),
                   static_cast<double>(result.stats.cache_hits),
                   static_cast<double>(result.stats.cache_hits) / n,
                   static_cast<double>(result.stats.thermal_solves),
                   std::string(identical ? "yes" : "NO")});
    JsonRow row;
    row.name = config.bench_name;
    row.seconds = seconds;
    row.scenarios = n;
    row.global_solves = static_cast<double>(result.stats.global_solves);
    row.cache_hits = static_cast<double>(result.stats.cache_hits);
    row.thermal_solves = static_cast<double>(result.stats.thermal_solves);
    json_rows.push_back(std::move(row));
    if (!identical) {
      std::cerr << "FAIL: `" << config.label << "` differs from the serial cold run\n";
      return 1;
    }
  }
  if (hits_with_cache == 0) {
    std::cerr << "FAIL: the suite produced no shared-solve cache hits\n";
    return 1;
  }
  if (json) {
    emit_json(std::cout, json_rows);
    return 0;
  }
  print_table(std::cout, "batch runner: thread counts x solve cache", table);
  std::cout << "\ncached coarse fields and thermal reports are bit-identical to cold\n"
               "solves; the speedup is the shared coarse and window solves plus whatever\n"
               "parallelism the cores allow\n";
  return 0;
}
