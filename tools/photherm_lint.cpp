/// \file photherm_lint.cpp
/// \brief Thin CLI over the tools/lint analysis library.
///
/// photherm_lint enforces the project's cross-cutting invariants — the bug
/// classes the ordinary test suite is structurally bad at catching. The
/// analysis itself lives in tools/lint/ (tokenizer, config, rule families);
/// this file only parses arguments, expands the scan set, runs the enabled
/// rules over the once-lexed tree, and renders findings as plain reports,
/// GitHub workflow annotations (--github), or SARIF (--sarif).
///
/// Contract (unchanged since PR 7): findings print as
///   <path>:<line>: [<rule>] <message>
/// and the exit code is 0 when clean, 2 when violations were found, 1 on
/// usage/config errors. Suppression grammar: inline
/// `// ph-lint: allow(rule) reason` markers and per-file `allow` lines in
/// the config (see tools/photherm_lint.rules).

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "lint/config.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "util/error.hpp"
#include "util/text_file.hpp"

namespace fs = std::filesystem;

namespace {

using photherm::Error;
using photherm::lint::Config;
using photherm::lint::Finding;
using photherm::lint::Reporter;
using photherm::lint::RuleInfo;
using photherm::lint::SourceFile;

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

/// Escape a value for a GitHub workflow command message.
std::string github_escape(const std::string& text, bool property) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': out += property ? "%3A" : std::string(1, c); break;
      case ',': out += property ? "%2C" : std::string(1, c); break;
      default: out += c; break;
    }
  }
  return out;
}

/// Escape a string for embedding in a JSON document.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/// Minimal SARIF 2.1.0: one run, the rule registry as reportingDescriptors,
/// one result per finding. Enough for GitHub code scanning upload.
void write_sarif(const std::string& path, const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"runs\": [{\n"
         "    \"tool\": {\"driver\": {\n"
         "      \"name\": \"photherm_lint\",\n"
         "      \"informationUri\": \"README.md\",\n"
         "      \"rules\": [\n";
  const std::vector<RuleInfo>& registry = photherm::lint::rules();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    out << "        {\"id\": \"" << json_escape(registry[i].name)
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(registry[i].summary)
        << "\"}}" << (i + 1 < registry.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
         "    }},\n"
         "    \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "      {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << json_escape(f.path) << "\"}, \"region\": {\"startLine\": " << f.line << "}}}]}"
        << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "    ]\n"
         "  }]\n"
         "}\n";
  photherm::write_text_file(path, out.str(), "SARIF report");
}

int usage(std::ostream& os, int code) {
  os << "usage: photherm_lint [--root DIR] [--config FILE] [--rule NAME ...]\n"
        "                     [--list-rules] [--github] [--sarif OUT] [--timings]\n"
        "                     PATH...\n"
        "Scans PATHs (files, or directories recursed for *.hpp/*.cpp, resolved\n"
        "against --root) for photherm invariant violations. Exit 0 when clean,\n"
        "2 when violations were found.\n"
        "  --github      also emit ::error workflow annotations per finding\n"
        "  --sarif OUT   also write a SARIF 2.1.0 report to OUT\n"
        "  --timings     print per-rule wall time after the summary\n";
  return code;
}

int run(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path config_path;
  std::set<std::string> enabled;
  std::vector<std::string> inputs;
  bool github = false;
  bool timings = false;
  std::string sarif_path;

  std::set<std::string> known_rules;
  for (const RuleInfo& rule : photherm::lint::rules()) {
    known_rules.insert(rule.name);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw Error(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--config") {
      config_path = value("--config");
    } else if (arg == "--rule") {
      const std::string name = value("--rule");
      if (known_rules.count(name) == 0) {
        throw Error("unknown rule `" + name + "`; see --list-rules");
      }
      enabled.insert(name);
    } else if (arg == "--list-rules") {
      for (const RuleInfo& rule : photherm::lint::rules()) {
        std::cout << rule.name << ": " << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--sarif") {
      sarif_path = value("--sarif");
    } else if (arg == "--timings") {
      timings = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "photherm_lint: unknown option `" << arg << "`\n";
      return usage(std::cerr, 1);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "photherm_lint: no paths to scan\n";
    return usage(std::cerr, 1);
  }
  if (enabled.empty()) {
    enabled = known_rules;
  }
  if (config_path.empty()) {
    config_path = root / "tools" / "photherm_lint.rules";
  } else if (config_path.is_relative()) {
    config_path = root / config_path;
  }
  const Config config = photherm::lint::load_config(config_path.string(), known_rules);

  // Expand inputs into a sorted, deduplicated file list: report order is
  // part of the tool's own determinism contract.
  std::set<std::string> to_scan;
  for (const std::string& input : inputs) {
    fs::path p = input;
    if (p.is_relative()) {
      p = root / p;
    }
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && scannable(entry.path())) {
          to_scan.insert(entry.path().lexically_normal().string());
        }
      }
    } else if (fs::is_regular_file(p)) {
      to_scan.insert(p.lexically_normal().string());
    } else {
      throw Error("no such file or directory: " + input);
    }
  }

  // Lex every file exactly once; all rule families share the token streams.
  std::vector<SourceFile> files;
  files.reserve(to_scan.size());
  for (const std::string& path : to_scan) {
    const std::string report_path =
        photherm::lint::normalize(fs::path(path).lexically_proximate(root).generic_string());
    files.push_back(photherm::lint::load_source(path, report_path));
  }

  std::vector<Finding> findings;
  Reporter reporter(config, findings);
  std::vector<std::pair<std::string, double>> rule_ms;
  for (const RuleInfo& rule : photherm::lint::rules()) {
    if (enabled.count(rule.name) == 0) {
      continue;
    }
    // ph-lint: allow(determinism) developer-facing wall time, never persisted
    const auto begin = std::chrono::steady_clock::now();
    photherm::lint::run_rule(rule.name, files, config, reporter);
    // ph-lint: allow(determinism) developer-facing wall time, never persisted
    const auto end = std::chrono::steady_clock::now();
    rule_ms.emplace_back(rule.name,
                         std::chrono::duration<double, std::milli>(end - begin).count());
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) {
      return a.path < b.path;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.rule < b.rule;
  });

  for (const Finding& f : findings) {
    std::cout << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  if (github) {
    for (const Finding& f : findings) {
      std::cout << "::error file=" << github_escape(f.path, true)
                << ",line=" << f.line << ",title=photherm_lint " << f.rule
                << "::" << github_escape("[" + f.rule + "] " + f.message, false) << "\n";
    }
  }
  if (!sarif_path.empty()) {
    write_sarif(sarif_path, findings);
  }
  std::cout << "photherm_lint: " << files.size() << " files, " << findings.size()
            << " violation" << (findings.size() == 1 ? "" : "s") << "\n";
  if (timings) {
    for (const auto& [name, ms] : rule_ms) {
      std::cout << "photherm_lint:   " << name << " " << ms << " ms\n";
    }
  }
  return findings.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "photherm_lint: " << e.what() << "\n";
    return 1;
  }
}
