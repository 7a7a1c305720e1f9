#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "geometry/block.hpp"
#include "replay.hpp"
#include "thermal/fvm.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

bool parse_number(const std::string& text, double& value) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

std::size_t column(const std::vector<std::string>& header, const std::string& name) {
  const auto it = std::find(header.begin(), header.end(), name);
  PH_REQUIRE(it != header.end(), "output has no `" + name + "` column");
  return static_cast<std::size_t>(it - header.begin());
}

double number_at(const std::vector<std::string>& header, const std::vector<std::string>& row,
                 const std::string& name) {
  double value = 0.0;
  const std::string& cell = row.at(column(header, name));
  PH_REQUIRE(parse_number(cell, value), "`" + name + "` is not a number: `" + cell + "`");
  return value;
}

}  // namespace

Rows parse_csv(const std::string& text) {
  Rows rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::vector<std::string> cells;
    std::size_t start = 0;
    for (;;) {
      const std::size_t comma = line.find(',', start);
      cells.push_back(line.substr(start, comma - start));
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

bool cells_match(const std::string& a, const std::string& b, double tol) {
  if (a == b) {
    return true;
  }
  double x = 0.0;
  double y = 0.0;
  if (!parse_number(a, x) || !parse_number(b, y)) {
    return false;
  }
  const double scale = std::max({1.0, std::abs(x), std::abs(y)});
  return std::abs(x - y) <= tol * scale;
}

std::string compare_rows(const std::vector<std::string>& reference,
                         const std::vector<std::string>& candidate,
                         const std::vector<std::string>& header, double tol) {
  if (reference.size() != candidate.size()) {
    return "row width " + std::to_string(candidate.size()) + " vs reference " +
           std::to_string(reference.size());
  }
  for (std::size_t c = 0; c < reference.size(); ++c) {
    if (!cells_match(reference[c], candidate[c], tol)) {
      const std::string name = c < header.size() ? header[c] : std::to_string(c);
      return "`" + name + "` = " + candidate[c] + " vs reference " + reference[c];
    }
  }
  return {};
}

std::string check_design_row(const std::vector<std::string>& header,
                             const std::vector<std::string>& row) {
  try {
    if (row.size() != header.size()) {
      return "row width " + std::to_string(row.size());
    }
    for (const char* name : {"chip_avg_c", "oni_avg_c", "oni_spread_c", "max_gradient_c"}) {
      if (!std::isfinite(number_at(header, row, name))) {
        return std::string("`") + name + "` is not finite";
      }
    }
    const double ambient = number_at(header, row, "t_ambient_c");
    if (number_at(header, row, "chip_avg_c") <= ambient ||
        number_at(header, row, "oni_avg_c") <= ambient) {
      return "die is not above ambient";
    }
    if (number_at(header, row, "max_gradient_c") < 0.0) {
      return "negative gradient";
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

std::string check_timeline_row(const std::vector<std::string>& header,
                               const std::vector<std::string>& row, double t_ambient) {
  if (row.size() != header.size()) {
    return "row width " + std::to_string(row.size());
  }
  for (std::size_t c = 1; c < header.size(); ++c) {
    double value = 0.0;
    if (!parse_number(row[c], value) || !std::isfinite(value)) {
      return "`" + header[c] + "` is not a finite number";
    }
    // Temperature probes end in `_c`; a gradient probe is a difference.
    if (!header[c].ends_with("_c")) {
      continue;
    }
    const bool difference = header[c].ends_with("gradient_c");
    if (value < (difference ? 0.0 : t_ambient - 1e-6)) {
      return "`" + header[c] + "` = " + row[c] +
             (difference ? " is negative" : " is below ambient");
    }
  }
  return {};
}

Rows reference_timeline_rows(const Rows& table, std::size_t steps_per_period) {
  Rows kept;
  if (table.empty()) {
    return kept;
  }
  kept.push_back(table.front());
  const std::size_t step_col = column(table.front(), "step");
  for (std::size_t r = 1; r < table.size(); ++r) {
    double step = 0.0;
    if (parse_number(table[r].at(step_col), step) &&
        (static_cast<std::size_t>(step) + 1) % steps_per_period == 0) {
      kept.push_back(table[r]);
    }
  }
  return kept;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PH_REQUIRE(in.good(), "cannot read `" + path + "`");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    PH_REQUIRE(out.good(), "cannot write `" + tmp + "`");
    out << text;
    PH_REQUIRE(out.good(), "short write to `" + tmp + "`");
  }
  PH_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0, "cannot rename to `" + path + "`");
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

std::vector<std::size_t> differing_rows(const std::string& a, const std::string& b) {
  const Rows ra = parse_csv(a);
  const Rows rb = parse_csv(b);
  std::vector<std::size_t> out;
  for (std::size_t r = 1; r < std::max(ra.size(), rb.size()); ++r) {
    if (r >= ra.size() || r >= rb.size() || ra[r] != rb[r]) {
      out.push_back(r - 1);
    }
  }
  return out;
}

std::vector<std::string> self_check(const std::string& reference_dir) {
  std::vector<std::string> missed;

  // 1. Reference gate: nudge one result cell by 1e-3 relative.
  const Rows reference = parse_csv(read_file(reference_dir + "/corners_seed0.csv"));
  PH_REQUIRE(reference.size() > 1, "corners reference is empty");
  Rows doctored = reference;
  std::string& cell = doctored[1][column(reference.front(), "oni_avg_c")];
  cell = std::to_string(std::stod(cell) * (1.0 + 1e-3));
  if (compare_rows(reference[1], doctored[1], reference.front(), kReferenceTolerance).empty()) {
    missed.push_back("reference tolerance");
  }
  // ... and a doctored row must still pass a 1e-6 nudge (the gate is not
  // tighter than its stated tolerance).
  Rows nudged = reference;
  std::string& small = nudged[1][column(reference.front(), "oni_avg_c")];
  small = std::to_string(std::stod(small) * (1.0 + 1e-6));
  if (!compare_rows(reference[1], nudged[1], reference.front(), kReferenceTolerance).empty()) {
    missed.push_back("reference tolerance is tighter than 1e-4");
  }

  // 2. Physical sanity: an ONI average below ambient.
  Rows cold = reference;
  cold[1][column(reference.front(), "oni_avg_c")] = "-300";
  if (check_design_row(reference.front(), cold[1]).empty()) {
    missed.push_back("design-row sanity");
  }

  // 3. Byte identity across budgets: one flipped digit in the last row.
  const std::string text = read_file(reference_dir + "/corners_seed0.csv");
  std::string flipped = text;
  const std::size_t last_digit = flipped.find_last_of("0123456789");
  flipped[last_digit] = flipped[last_digit] == '1' ? '2' : '1';
  if (differing_rows(text, flipped).size() != 1) {
    missed.push_back("byte identity");
  }

  // 4. Energy balance: a heated slab solved to convergence must balance,
  // and the same field warmed by 1 degC must not.
  photherm::geometry::Scene scene;
  scene.add(photherm::geometry::Block{
      "slab", photherm::geometry::Box3::make({0.0, 0.0, 0.0}, {1e-3, 1e-3, 1e-4}),
      scene.materials().id_of("silicon"), 0.5, photherm::geometry::BlockKind::kHeatSource, -1});
  photherm::mesh::MeshOptions mesh_options;
  mesh_options.default_max_cell_xy = 1e-4;
  mesh_options.default_max_cell_z = 2.5e-5;
  const auto bcs = photherm::thermal::BoundarySet::package(1e4, 1e3, 25.0);
  const photherm::thermal::ThermalField field = photherm::thermal::solve_steady_state(
      photherm::mesh::RectilinearMesh::build(scene, mesh_options), bcs);
  if (energy_imbalance(field, bcs) > kEnergyTolerance) {
    missed.push_back("energy balance rejects a converged field");
  }
  std::vector<double> warmer = field.temperatures();
  for (double& t : warmer) {
    t += 1.0;
  }
  const photherm::thermal::ThermalField broken(field.mesh_ptr(), std::move(warmer));
  if (energy_imbalance(broken, bcs) <= kEnergyTolerance) {
    missed.push_back("energy balance");
  }
  return missed;
}

}  // namespace perfbench
