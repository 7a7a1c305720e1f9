/// \file config.cpp
/// \brief Config parsing and the layer-DAG transitive closure.

#include "lint/config.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/text_file.hpp"

namespace photherm::lint {

namespace {

using photherm::Error;

/// Expand direct layer dependencies into their transitive closure, failing
/// on unknown names and cycles (a layer DAG must be acyclic to mean
/// anything).
std::map<std::string, std::set<std::string>> close_layers(
    const std::map<std::string, std::vector<std::string>>& direct, const std::string& context) {
  std::map<std::string, std::set<std::string>> closed;
  enum class Mark { kUnvisited, kInProgress, kDone };
  std::map<std::string, Mark> marks;

  struct Closer {
    const std::map<std::string, std::vector<std::string>>& direct;
    const std::string& context;
    std::map<std::string, std::set<std::string>>& closed;
    std::map<std::string, Mark>& marks;

    const std::set<std::string>& visit(const std::string& name) {
      if (marks[name] == Mark::kDone) {
        return closed[name];
      }
      if (marks[name] == Mark::kInProgress) {
        throw Error(context + ": layer dependency cycle through `" + name + "`");
      }
      marks[name] = Mark::kInProgress;
      std::set<std::string>& out = closed[name];
      out.insert(name);
      for (const std::string& dep : direct.at(name)) {
        if (dep == "*") {
          out = {"*"};
          break;
        }
        if (direct.find(dep) == direct.end()) {
          throw Error(context + ": layer `" + name + "` depends on undeclared layer `" + dep +
                      "`");
        }
        const std::set<std::string>& sub = visit(dep);
        if (sub.count("*") != 0) {
          out = {"*"};
          break;
        }
        out.insert(sub.begin(), sub.end());
      }
      marks[name] = Mark::kDone;
      return closed[name];
    }
  } closer{direct, context, closed, marks};

  for (const auto& [name, deps] : direct) {
    (void)deps;
    closer.visit(name);
  }
  return closed;
}

}  // namespace

std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool suffix_match(const std::string& path, const std::string& suffix) {
  const std::string p = normalize(path);
  if (p.size() < suffix.size()) {
    return false;
  }
  if (p.size() == suffix.size()) {
    return p == suffix;
  }
  // Match on a path-component boundary so `axis.hpp` cannot match
  // `taxis.hpp`.
  return p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0 &&
         p[p.size() - suffix.size() - 1] == '/';
}

Config load_config(const std::string& path, const std::set<std::string>& known_rules) {
  std::istringstream in(read_text_file(path, "lint config"));
  Config config;
  std::map<std::string, std::vector<std::string>> direct_layers;
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string line = raw.substr(0, raw.find('#'));
    std::stringstream fields(line);
    std::string kind;
    if (!(fields >> kind)) {
      continue;  // blank or comment-only
    }
    const auto context = [&] { return path + ":" + std::to_string(line_number); };
    if (kind == "serialized") {
      std::string suffix;
      if (!(fields >> suffix)) {
        throw Error(context() + ": `serialized` needs a path suffix");
      }
      config.serialized.push_back(normalize(suffix));
    } else if (kind == "allow") {
      std::string rule, suffix;
      if (!(fields >> rule >> suffix)) {
        throw Error(context() + ": `allow` needs a rule name and a path suffix");
      }
      if (known_rules.count(rule) == 0) {
        throw Error(context() + ": unknown rule `" + rule + "`");
      }
      config.allows[rule].push_back(normalize(suffix));
    } else if (kind == "layer") {
      std::string name;
      if (!(fields >> name)) {
        throw Error(context() + ": `layer` needs a module name");
      }
      if (direct_layers.count(name) != 0) {
        throw Error(context() + ": layer `" + name + "` declared twice");
      }
      std::vector<std::string>& deps = direct_layers[name];
      std::string dep;
      while (fields >> dep) {
        deps.push_back(dep);
      }
    } else if (kind == "module") {
      std::string layer, suffix;
      if (!(fields >> layer >> suffix)) {
        throw Error(context() + ": `module` needs a layer name and a path suffix");
      }
      config.modules.emplace_back(layer, normalize(suffix));
    } else if (kind == "telemetry_catalog") {
      std::string suffix;
      if (!(fields >> suffix)) {
        throw Error(context() + ": `telemetry_catalog` needs a path suffix");
      }
      config.telemetry_catalogs.push_back(normalize(suffix));
    } else {
      throw Error(context() + ": unknown directive `" + kind +
                  "` (expected `serialized`, `allow`, `layer`, `module`, or "
                  "`telemetry_catalog`)");
    }
  }
  config.layers = close_layers(direct_layers, path);
  // A `module` assignment to an undeclared layer is a config typo.
  for (const auto& [layer, suffix] : config.modules) {
    (void)suffix;
    if (config.layers.count(layer) == 0) {
      throw Error(path + ": `module " + layer + " ...` names an undeclared layer");
    }
  }
  return config;
}

}  // namespace photherm::lint
