#include "mesh/axis.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace photherm::mesh {

std::vector<double> generate_ticks(double domain_lo, double domain_hi,
                                   std::vector<double> boundaries, double default_max_size,
                                   const std::vector<AxisRefinement>& refinements,
                                   double snap_tol) {
  PH_REQUIRE(domain_hi > domain_lo, "axis domain must be non-empty");
  PH_REQUIRE(default_max_size > 0.0, "default max cell size must be positive");
  for (const AxisRefinement& r : refinements) {
    PH_REQUIRE(r.max_size > 0.0, "refinement max cell size must be positive");
    PH_REQUIRE(r.hi > r.lo, "refinement range must be non-empty");
  }

  boundaries.push_back(domain_lo);
  boundaries.push_back(domain_hi);
  for (const AxisRefinement& r : refinements) {
    boundaries.push_back(r.lo);
    boundaries.push_back(r.hi);
  }
  std::sort(boundaries.begin(), boundaries.end());

  // Keep boundaries inside the domain, merging near-duplicates.
  std::vector<double> base;
  for (double b : boundaries) {
    if (b < domain_lo - snap_tol || b > domain_hi + snap_tol) {
      continue;
    }
    const double clamped = std::clamp(b, domain_lo, domain_hi);
    if (base.empty() || clamped - base.back() > snap_tol) {
      base.push_back(clamped);
    }
  }
  PH_REQUIRE(base.size() >= 2, "no usable axis boundaries");
  base.front() = domain_lo;
  base.back() = domain_hi;

  std::vector<double> ticks;
  ticks.push_back(base.front());
  for (std::size_t i = 0; i + 1 < base.size(); ++i) {
    const double lo = base[i];
    const double hi = base[i + 1];
    double max_size = default_max_size;
    const double mid = 0.5 * (lo + hi);
    for (const AxisRefinement& r : refinements) {
      if (mid > r.lo - snap_tol && mid < r.hi + snap_tol) {
        max_size = std::min(max_size, r.max_size);
      }
    }
    const auto pieces =
        static_cast<std::size_t>(std::max(1.0, std::ceil((hi - lo) / max_size - 1e-12)));
    for (std::size_t p = 1; p <= pieces; ++p) {
      ticks.push_back(lo + (hi - lo) * static_cast<double>(p) / static_cast<double>(pieces));
    }
  }
  ticks.back() = domain_hi;
  return ticks;
}

AxisGrid::AxisGrid(std::vector<double> ticks) : ticks_(std::move(ticks)) {
  PH_REQUIRE(ticks_.size() >= 2, "an axis grid needs at least two ticks");
  for (std::size_t i = 1; i < ticks_.size(); ++i) {
    PH_REQUIRE(ticks_[i] > ticks_[i - 1], "axis ticks must be strictly increasing");
  }
}

std::size_t AxisGrid::find_cell(double x) const {
  // Cell i holds ticks[i] <= x < ticks[i+1]; x outside the domain clamps to
  // the first or last cell, and x == hi() belongs to the last.
  if (x <= ticks_.front()) {
    return 0;
  }
  if (x >= ticks_[ticks_.size() - 2]) {
    return ticks_.size() - 2;
  }
  const auto it = std::upper_bound(ticks_.begin(), ticks_.end(), x);
  return static_cast<std::size_t>(std::distance(ticks_.begin(), it)) - 1;
}

std::pair<std::size_t, std::size_t> AxisGrid::cell_range(double lo, double hi) const {
  PH_REQUIRE(hi > lo, "cell_range: empty query range");
  if (hi <= ticks_.front() || lo >= ticks_.back()) {
    return {0, 0};
  }
  std::size_t first = find_cell(std::max(lo, ticks_.front()));
  // Skip cells that only touch the range at their upper face.
  if (cell_hi(first) <= lo) {
    ++first;
  }
  std::size_t last = find_cell(std::min(hi, ticks_.back()));
  if (cell_lo(last) >= hi) {
    // `hi` lands exactly on this cell's lower face: exclusive.
    ;
  } else {
    ++last;
  }
  if (first >= last) {
    return {0, 0};
  }
  return {first, last};
}

}  // namespace photherm::mesh
