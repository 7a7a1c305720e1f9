/// \file config.cpp
/// \brief Config parsing and the layer-DAG transitive closure.

#include "lint/config.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/text_file.hpp"

namespace photherm::lint {

namespace {

/// Direct dependencies of one `layer` line, and that line's number.
struct LayerLine {
  std::vector<std::string> deps;
  std::size_t line = 0;
};

/// Expand direct layer dependencies into their transitive closure, failing
/// on unknown names and cycles (a layer DAG must be acyclic to mean
/// anything). Errors name the `layer` line that lists the bad dependency.
std::map<std::string, std::set<std::string>> close_layers(
    const std::map<std::string, LayerLine>& direct, const std::string& source) {
  std::map<std::string, std::set<std::string>> closed;
  std::set<std::string> on_path;  ///< layers whose closure is being computed
  const auto visit = [&](const auto& self,
                         const std::string& name) -> const std::set<std::string>& {
    if (const auto done = closed.find(name); done != closed.end()) {
      return done->second;
    }
    on_path.insert(name);
    const LayerLine& layer = direct.at(name);
    std::set<std::string> out = {name};
    for (const std::string& dep : layer.deps) {
      if (dep != "*" && direct.count(dep) == 0) {
        throw SpecError(line_message(
            source, layer.line,
            "layer `" + name + "` depends on undeclared layer `" + dep + "`"));
      }
      if (on_path.count(dep) != 0) {
        throw SpecError(
            line_message(source, layer.line, "layer dependency cycle through `" + dep + "`"));
      }
      if (dep == "*" || self(self, dep).count("*") != 0) {
        out = {"*"};
        break;
      }
      out.insert(closed.at(dep).begin(), closed.at(dep).end());
    }
    on_path.erase(name);
    return closed[name] = std::move(out);
  };
  for (const auto& entry : direct) {
    visit(visit, entry.first);
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
  const std::string source = "lint config " + path;
  Config config;
  std::map<std::string, LayerLine> direct_layers;
  std::vector<std::size_t> module_lines;
  const auto on_line = [&](std::string_view raw, std::size_t line) {
    const std::vector<std::string> words = split_words(strip_comment(raw));
    if (words.empty()) {
      return;
    }
    const std::string& kind = words[0];
    const auto need = [&](std::size_t count, const std::string& what) {
      if (words.size() < count + 1) {
        throw SpecError("`" + kind + "` needs " + what);
      }
    };
    if (kind == "serialized") {
      need(1, "a path suffix");
      config.serialized.push_back(normalize(words[1]));
    } else if (kind == "allow") {
      need(2, "a rule name and a path suffix");
      if (known_rules.count(words[1]) == 0) {
        throw SpecError("unknown rule `" + words[1] + "`");
      }
      config.allows[words[1]].push_back(normalize(words[2]));
    } else if (kind == "layer") {
      need(1, "a module name");
      if (direct_layers.count(words[1]) != 0) {
        throw SpecError("layer `" + words[1] + "` declared twice");
      }
      direct_layers[words[1]] = {{words.begin() + 2, words.end()}, line};
    } else if (kind == "module") {
      need(2, "a layer name and a path suffix");
      config.modules.emplace_back(words[1], normalize(words[2]));
      module_lines.push_back(line);
    } else if (kind == "telemetry_catalog") {
      need(1, "a path suffix");
      config.telemetry_catalogs.push_back(normalize(words[1]));
    } else {
      throw SpecError("unknown directive `" + kind +
                      "` (expected `serialized`, `allow`, `layer`, `module`, or "
                      "`telemetry_catalog`)");
    }
  };
  for_each_line(read_text_file(path, "lint config"), source, on_line);
  config.layers = close_layers(direct_layers, source);
  // A `module` assignment to an undeclared layer is a config typo.
  for (std::size_t i = 0; i < config.modules.size(); ++i) {
    const std::string& layer = config.modules[i].first;
    if (config.layers.count(layer) == 0) {
      throw SpecError(line_message(source, module_lines[i],
                                   "`module " + layer + " ...` names an undeclared layer"));
    }
  }
  return config;
}

}  // namespace photherm::lint
