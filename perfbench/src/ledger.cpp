#include "ledger.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

/// The text after `"key":` on `line`, or an empty string.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) {
    return {};
  }
  std::size_t begin = at + tag.size();
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    return line.substr(begin, line.find('"', begin) - begin);
  }
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

const std::set<std::string>& root_spans() {
  static const std::set<std::string> names{"core.prepare", "core.global_solve", "core.point",
                                           "timeline.playback"};
  return names;
}

const std::set<std::string>& leaf_spans() {
  static const std::set<std::string> names{"core.scene_key",     "soc.build_system",
                                           "mesh.build",         "thermal.assemble",
                                           "math.precond_build", "math.cg",
                                           "thermal.field_query", "noc.snr",
                                           "timeline.setup",     "timeline.step"};
  return names;
}

}  // namespace

std::vector<SpanEvent> parse_trace(const std::string& json) {
  std::vector<SpanEvent> spans;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) {
      continue;
    }
    SpanEvent e;
    e.name = field(line, "name");
    e.tid = std::strtol(field(line, "tid").c_str(), nullptr, 10);
    e.ts_us = std::strtod(field(line, "ts").c_str(), nullptr);
    e.dur_us = std::strtod(field(line, "dur").c_str(), nullptr);
    spans.push_back(std::move(e));
  }
  return spans;
}

std::vector<double> durations_ms(const std::vector<SpanEvent>& spans, const std::string& name) {
  std::vector<double> out;
  for (const SpanEvent& e : spans) {
    if (e.name == name) {
      out.push_back(e.dur_us / 1e3);
    }
  }
  return out;
}

double total_ms(const std::vector<SpanEvent>& spans, const std::string& name) {
  double total = 0.0;
  for (double d : durations_ms(spans, name)) {
    total += d;
  }
  return total;
}

double unattributed_ratio(const std::vector<SpanEvent>& spans) {
  double roots = 0.0;
  double leaves = 0.0;
  for (const SpanEvent& e : spans) {
    if (root_spans().contains(e.name)) {
      roots += e.dur_us;
    } else if (leaf_spans().contains(e.name)) {
      leaves += e.dur_us;
    }
  }
  return roots > 0.0 ? std::max(0.0, roots - leaves) / roots : 0.0;
}

double metrics_counter(const std::string& csv, const std::string& name) {
  // Rows: metric,kind,count,total,... — a counter's value is `total`.
  std::istringstream in(csv);
  std::string line;
  const std::string prefix = name + ",counter,";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t count_end = line.find(',', prefix.size());
      return std::strtod(line.c_str() + count_end + 1, nullptr);
    }
  }
  return 0.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace perfbench
