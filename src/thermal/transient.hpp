/// \file transient.hpp
/// \brief Transient conduction by implicit (backward) Euler. IcTherm's
/// original publication [23] is a transient simulator; the paper only needs
/// steady state, but the transient engine is provided for studying heating
/// latency of the MR calibration loop (Sec. II discussion). The timeline
/// engine (timeline/playback.hpp) drives it through scenario schedules.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "thermal/fvm.hpp"

namespace photherm::thermal {

struct TransientOptions {
  double time_step = 1e-3;  ///< [s]
  math::SolverOptions solver;
  TransientOptions() {
    solver.rel_tolerance = 1e-10;
    // Warm-started per-step solves: same explicit recursive-vs-true residual
    // slack as SteadyStateOptions (see fvm.hpp).
    solver.convergence_slack = 10.0;
  }
};

/// Cumulative per-solver stepping statistics (for benches and the timeline
/// trace): how many steps ran and what they cost in CG iterations.
struct TransientStats {
  std::size_t steps = 0;
  std::size_t total_cg_iterations = 0;
  std::size_t max_cg_iterations = 0;  ///< worst single step
  /// Stepping-matrix rebuilds triggered by set_time_step (adaptive dt).
  /// The construction-time assembly is not counted.
  std::size_t reassemblies = 0;
  /// Preconditioner rebuilds triggered by set_time_step. The solver caches
  /// its preconditioner with the stepping operator (the construction-time
  /// build is not counted, mirroring `reassemblies`), so this stays equal
  /// to `reassemblies` instead of growing by one per step as the old
  /// build-inside-CG path did.
  std::size_t preconditioner_builds = 0;
};

/// Element-wise accumulation (max for the worst-step figure). The timeline
/// checkpoint machinery folds the cost of a resumed playback's earlier
/// session into the fresh solver's counters with this.
TransientStats operator+(const TransientStats& a, const TransientStats& b);

/// The backward-Euler stepping matrix C/dt + A of `system`: A's pattern and
/// entries with C/dt added to each row's stored diagonal (A must store every
/// diagonal, as `assemble` does). SPD whenever A is.
math::CsrMatrix stepping_matrix(const DiscreteSystem& system, double dt);

/// Steps T(t) forward with backward Euler:
///   (C/dt + A) T_{n+1} = (C/dt) T_n + q.
/// The operator (C/dt + A) is SPD, so CG applies. Power can be updated
/// between steps per cell via set_power, which only touches the right-hand
/// side, so no reassembly or re-preconditioning happens between phases.
class TransientSolver {
 public:
  TransientSolver(std::shared_ptr<const mesh::RectilinearMesh> mesh, const BoundarySet& bcs,
                  const TransientOptions& options = {});

  /// Initialise the state to a uniform temperature.
  void set_uniform_state(double t_celsius);

  /// Initialise from an existing field (must share the mesh dimensions).
  void set_state(const ThermalField& field);

  /// Advance one time step; returns the new field (state is kept
  /// internally as well).
  const ThermalField& step();

  /// Advance `n` steps; returns the final field.
  const ThermalField& advance(std::size_t n);

  /// Replace the injected power per cell [W] (size must match the mesh).
  /// Rhs-only, so phase changes cost nothing beyond the copy — the timeline
  /// engine swaps power vectors between schedule phases without touching
  /// the stepping matrix.
  void set_power(const math::Vector& power);

  /// Injected power per cell currently applied.
  const math::Vector& power() const { return power_; }

  /// Change the step size; takes effect on the next step. Rebuilds the
  /// stepping matrix C/dt + A (the only dt-dependent state) — the one
  /// genuinely expensive part of a dt change, so adaptive stepping calls
  /// this rarely (geometric growth) and never per step. Counted in
  /// stats().reassemblies. The state, time, power and rhs split are
  /// untouched; a no-op when `dt` already is the current step.
  void set_time_step(double dt);
  double time_step() const { return options_.time_step; }

  /// Restore the simulation clock (checkpoint resume): the next step ends
  /// at `time + time_step()`. Must be non-negative and finite.
  void set_time(double time);

  double time() const { return time_; }
  const ThermalField& state() const { return *field_; }

  /// CG result of the most recent step() (default-constructed before the
  /// first step).
  const math::SolverResult& last_solve() const { return last_solve_; }

  /// Cumulative stepping statistics since construction.
  const TransientStats& stats() const { return stats_; }

  /// The assembled steady-state system (operator A, rhs, capacitance) this
  /// solver steps. Read-only; the timeline engine reuses it for the steady
  /// settle reference instead of assembling the same scene twice.
  const DiscreteSystem& system() const { return system_; }

 private:
  void refresh_field();
  /// Rebuild C/dt + A and the preconditioner cached with it for the current
  /// time step.
  void rebuild_stepping();

  std::shared_ptr<const mesh::RectilinearMesh> mesh_;
  TransientOptions options_;
  DiscreteSystem system_;          ///< steady-state operator A and rhs q
  math::CsrMatrix stepping_matrix_;  ///< C/dt + A
  /// Cached with the stepping operator and rebuilt only by set_time_step —
  /// never per solve (see TransientStats::preconditioner_builds).
  std::optional<math::Ilu0Preconditioner> precond_;
  math::Vector power_;             ///< injected power per cell [W]
  math::Vector bc_rhs_;            ///< boundary wall terms of the rhs
  math::Vector state_;
  std::optional<ThermalField> field_;  ///< mirrors state_ (state() is a cheap ref)
  math::SolverResult last_solve_;
  TransientStats stats_;
  double time_ = 0.0;
};

}  // namespace photherm::thermal
