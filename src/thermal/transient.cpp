#include "thermal/transient.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace photherm::thermal {

TransientStats operator+(const TransientStats& a, const TransientStats& b) {
  TransientStats sum;
  sum.steps = a.steps + b.steps;
  sum.total_cg_iterations = a.total_cg_iterations + b.total_cg_iterations;
  sum.max_cg_iterations = std::max(a.max_cg_iterations, b.max_cg_iterations);
  sum.reassemblies = a.reassemblies + b.reassemblies;
  sum.preconditioner_builds = a.preconditioner_builds + b.preconditioner_builds;
  return sum;
}

math::CsrMatrix stepping_matrix(const DiscreteSystem& system, double dt) {
  const math::CsrMatrix& a = system.matrix;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  std::vector<double> values = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]);
    const auto end = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]);
    const auto diag = std::lower_bound(begin, end, static_cast<std::uint32_t>(r));
    PH_REQUIRE(diag != end && *diag == r, "stepping_matrix: row without a stored diagonal");
    values[static_cast<std::size_t>(diag - col_idx.begin())] += system.capacitance[r] / dt;
  }
  return math::CsrMatrix(a.rows(), a.cols(), row_ptr, col_idx, std::move(values));
}

TransientSolver::TransientSolver(std::shared_ptr<const mesh::RectilinearMesh> mesh,
                                 const BoundarySet& bcs, const TransientOptions& options)
    : mesh_(std::move(mesh)), options_(options) {
  PH_REQUIRE(mesh_ != nullptr, "TransientSolver: null mesh");
  PH_REQUIRE(options_.time_step > 0.0, "time step must be positive");
  system_ = assemble(*mesh_, bcs);
  rebuild_stepping();
  state_.assign(mesh_->cell_count(), 0.0);
  // Separate injected power from boundary wall terms so set_power
  // throttles only the heat sources, not the ambient coupling.
  power_.resize(mesh_->cell_count());
  bc_rhs_.resize(mesh_->cell_count());
  for (std::size_t i = 0; i < mesh_->cell_count(); ++i) {
    power_[i] = mesh_->power(i);
    bc_rhs_[i] = system_.rhs[i] - power_[i];
  }
  refresh_field();
}

void TransientSolver::set_uniform_state(double t_celsius) {
  state_.assign(mesh_->cell_count(), t_celsius);
  refresh_field();
}

void TransientSolver::set_state(const ThermalField& field) {
  PH_REQUIRE(field.temperatures().size() == mesh_->cell_count(),
             "set_state: field does not match the mesh");
  state_ = field.temperatures();
  refresh_field();
}

const ThermalField& TransientSolver::step() {
  const std::size_t n = mesh_->cell_count();
  math::Vector rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = system_.capacitance[i] / options_.time_step * state_[i] + bc_rhs_[i] + power_[i];
  }
  // Warm start: the update (C/dt + A) T_{n+1} = (C/dt) T_n + q moves the
  // field a little per step, so the previous state is an excellent initial
  // guess. state_ has the system size, so CG keeps it as the guess
  // (solvers.hpp warm-start contract).
  last_solve_ =
      math::conjugate_gradient(stepping_matrix_, rhs, state_, *precond_, options_.solver);
  stats_.steps += 1;
  stats_.total_cg_iterations += last_solve_.iterations;
  stats_.max_cg_iterations = std::max(stats_.max_cg_iterations, last_solve_.iterations);
  telemetry::count("transient.steps");
  time_ += options_.time_step;
  refresh_field();
  return *field_;
}

const ThermalField& TransientSolver::advance(std::size_t n) {
  PH_REQUIRE(n >= 1, "advance requires at least one step");
  for (std::size_t i = 0; i + 1 < n; ++i) {
    step();
  }
  return step();
}

void TransientSolver::set_time_step(double dt) {
  PH_REQUIRE(dt > 0.0 && std::isfinite(dt), "time step must be positive and finite");
  if (dt == options_.time_step) {
    return;
  }
  options_.time_step = dt;
  {
    telemetry::Span span("transient.reassemble");
    rebuild_stepping();
  }
  stats_.reassemblies += 1;
  stats_.preconditioner_builds += 1;
  telemetry::count("transient.reassemblies");
  telemetry::count("transient.preconditioner_builds");
}

void TransientSolver::rebuild_stepping() {
  stepping_matrix_ = stepping_matrix(system_, options_.time_step);
  precond_.emplace(stepping_matrix_);
}

void TransientSolver::set_time(double time) {
  PH_REQUIRE(time >= 0.0 && std::isfinite(time), "time must be non-negative and finite");
  time_ = time;
}

void TransientSolver::set_power(const math::Vector& power) {
  PH_REQUIRE(power.size() == mesh_->cell_count(),
             "set_power: power vector does not match the mesh");
  power_ = power;
}

void TransientSolver::refresh_field() { field_.emplace(mesh_, state_); }

}  // namespace photherm::thermal
