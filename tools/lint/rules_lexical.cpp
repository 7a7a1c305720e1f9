/// \file rules_lexical.cpp
/// \brief The PR 7 line-lexical rule families, ported onto the shared
/// source model: ownership, determinism, serialization, errors. These run
/// over the blanked `code` lines (comments and literal bodies are spaces),
/// so prose and messages can never false-positive. Every single-line
/// spelling of these bug classes is caught; the cross-line classes have
/// their own token-based families (rules_structural.cpp).

#include <regex>
#include <set>
#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace photherm::lint {

namespace {

// Types whose instances are solver-lifetime resources: a raw view member
// into one of these is exactly the PR 6 SSOR dangling-pointer bug class.
const char* const kGuardedTypes =
    "(?:CsrMatrix|Preconditioner|RectilinearMesh|ThermalField|Axis)";

}  // namespace

void rule_ownership(const SourceFile& file, Reporter& reporter) {
  // An uninitialized `Type* name;` / `Type& name;` declaration is
  // member-style: locals are initialized (references must be) and function
  // parameters are always followed by `,` or `)`, never `;`.
  static const std::regex member(std::string(R"(\b)") + kGuardedTypes +
                                 R"(\b[^;(){}=]*[*&]\s*[A-Za-z_]\w*\s*;)");
  // Members with default initializers follow the trailing-underscore
  // naming convention, which keeps initialized locals (fine) out of scope.
  static const std::regex member_init(std::string(R"(\b)") + kGuardedTypes +
                                      R"(\b[^;(){}=]*[*&]\s*[A-Za-z_]\w*_\s*=[^;]*;)");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (std::regex_search(code, member) || std::regex_search(code, member_init)) {
      reporter.report(file, i, "ownership",
                      "raw pointer/reference member to a solver-lifetime type "
                      "(CsrMatrix/Preconditioner/mesh/...): the holder must own its "
                      "data (copy, unique_ptr, shared_ptr) — a non-owning view member "
                      "is the PR 6 SSOR dangling-pointer bug class; if the lifetime "
                      "is provably managed, allowlist it with the argument written "
                      "down");
    }
  }
}

void rule_determinism(const SourceFile& file, Reporter& reporter) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  // `[^\w.>:]` guards reject member calls (`solver_->time()`, `obj.time()`)
  // and qualified names handled by their own std:: pattern.
  static const std::vector<Pattern> patterns = [] {
    std::vector<Pattern> t;
    t.push_back({std::regex(R"(\bstd::rand\b|(?:^|[^\w.>:])rand\s*\()"), "rand()"});
    t.push_back({std::regex(R"(\bstd::srand\b|(?:^|[^\w.>:])srand\s*\()"), "srand()"});
    // libc time() always takes an argument; zero-arg `time()` is a member
    // accessor (e.g. TransientSolver::time()), which stays legal.
    t.push_back({std::regex(R"(\bstd::time\b|(?:^|[^\w.>:])time\s*\(\s*[^)\s])"), "time()"});
    t.push_back({std::regex(R"((?:^|[^\w.>:])clock\s*\()"), "clock()"});
    t.push_back({std::regex(R"(\bgettimeofday\b|\blocaltime\b|\bgmtime\b)"), "wall-clock time"});
    t.push_back({std::regex(R"(\brandom_device\b)"), "std::random_device"});
    t.push_back({std::regex(R"(\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b)"),
                 "a std::chrono clock"});
    return t;
  }();

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (const Pattern& pattern : patterns) {
      if (std::regex_search(code, pattern.re)) {
        reporter.report(file, i, "determinism",
                        std::string(pattern.what) +
                            " is non-deterministic across runs: results must be "
                            "bit-identical at any thread count, so all stochastic "
                            "inputs derive from util::Rng with an explicit seed and "
                            "timing belongs in bench/, not src/");
      }
    }
  }

  // Iterating an unordered container visits elements in hash order, which
  // is implementation-defined: any iteration that feeds output, ordering,
  // or floating-point accumulation silently breaks bit-identity. Collect
  // the names declared with unordered types in this file, then flag
  // range-for loops and begin() walks over them. Keyed lookups stay fine.
  static const std::regex decl(R"(\bunordered_(?:map|set)\s*<.*>\s*[&*]?\s*([A-Za-z_]\w*))");
  std::set<std::string> unordered_names;
  for (const SourceLine& line : file.lines) {
    auto begin = std::sregex_iterator(line.code.begin(), line.code.end(), decl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[1].str());
    }
  }
  for (const std::string& name : unordered_names) {
    // `.end()` alone is a find()-sentinel, not iteration: only range-for
    // and begin()-family walks visit hash order.
    const std::regex iteration(R"(for\s*\([^)]*:\s*)" + name + R"(\b|\b)" + name +
                               R"(\s*\.\s*(?:begin|cbegin|rbegin|crbegin)\s*\()");
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      if (std::regex_search(file.lines[i].code, iteration)) {
        reporter.report(file, i, "determinism",
                        "iteration over unordered container `" + name +
                            "` visits hash order, which is implementation-defined: "
                            "anything it feeds (output, accumulation, ordering) loses "
                            "bit-identity — iterate a sorted std::map/std::vector "
                            "instead, or keep the container lookup-only");
      }
    }
  }
}

void rule_serialization(const SourceFile& file, const Config& config, Reporter& reporter) {
  bool serialized = false;
  for (const std::string& suffix : config.serialized) {
    if (suffix_match(file.path, suffix)) {
      serialized = true;
      break;
    }
  }
  if (!serialized) {
    return;
  }
  static const std::regex to_string(R"(\bstd::to_string\s*\()");
  static const std::regex precision(R"(\bsetprecision\b|\bstd::scientific\b|\bstd::fixed\b)");
  static const std::regex printf_float(R"(%[-+ #0-9.*]*l?[aefgAEFG])");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const SourceLine& line = file.lines[i];
    if (std::regex_search(line.code, to_string)) {
      reporter.report(file, i, "serialization",
                      "std::to_string in a persisted-format writer: doubles must go "
                      "through util::format_shortest so serialize/parse round-trips "
                      "bit-exactly (std::to_string truncates to 6 digits); integral "
                      "arguments round-trip exactly under any formatting — allowlist "
                      "them stating the type");
    }
    if (std::regex_search(line.code, precision)) {
      reporter.report(file, i, "serialization",
                      "iostream precision formatting in a persisted-format writer: "
                      "a fixed digit count either truncates the double or spells it "
                      "unreadably — persisted doubles go through "
                      "util::format_shortest (shortest spelling that parses back "
                      "bit-identically)");
    }
    if (std::regex_search(line.literals, printf_float)) {
      reporter.report(file, i, "serialization",
                      "printf-style float conversion in a persisted-format writer: "
                      "persisted doubles go through util::format_shortest");
    }
  }
}

void rule_errors(const SourceFile& file, Reporter& reporter) {
  static const std::regex throw_site(R"(\bthrow\b)");
  // `throw <qualified-id>(...)`: capture the final identifier of the
  // qualified name. Project error types all end in `Error` and derive from
  // photherm::Error, which is what keeps failure modes assertable.
  static const std::regex throw_expr(R"(\bthrow\s+(?:::)?(?:\w+\s*::\s*)*(\w+))");
  static const std::regex rethrow(R"(\bthrow\s*;)");
  static const std::regex process_exit(R"(\babort\s*\(|\bstd::exit\b|(?:^|[^\w.>:])exit\s*\()");

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    if (std::regex_search(code, process_exit)) {
      reporter.report(file, i, "errors",
                      "abort()/exit() is not an error path: throw photherm::Error "
                      "(or use PH_REQUIRE) so callers and the test suite can assert "
                      "on the failure mode");
    }
    if (!std::regex_search(code, throw_site) || std::regex_search(code, rethrow)) {
      continue;
    }
    // `throw` at end of line: join the next code lines so the thrown type
    // lands in the same buffer.
    std::string stmt = code;
    for (std::size_t j = i + 1; j < file.lines.size() && j < i + 3; ++j) {
      std::smatch m;
      if (std::regex_search(stmt, m, throw_expr)) {
        break;
      }
      stmt += " " + file.lines[j].code;
    }
    std::smatch m;
    const bool named = std::regex_search(stmt, m, throw_expr);
    const std::string type = named ? m[1].str() : "";
    const bool is_error_type = type.size() >= 5 && type.compare(type.size() - 5, 5, "Error") == 0;
    if (!is_error_type) {
      reporter.report(file, i, "errors",
                      "throw of `" + (type.empty() ? std::string("<unnamed>") : type) +
                          "`: every photherm failure raises photherm::Error or a "
                          "subclass (SpecError, SolverError, ...; via PH_REQUIRE "
                          "where it is a precondition) so failure modes stay "
                          "assertable");
    }
  }
}

}  // namespace photherm::lint
