/// Timing benchmarks (google-benchmark) of the numerical core: the CSR
/// sparse matrix-vector product, the ILU(0) apply, ILU(0)-preconditioned
/// CG, assembly, and the transient hot path: repeated warm-started solves
/// against a fixed stepping matrix, where preconditioner caching actually
/// shows up.
#include <benchmark/benchmark.h>

#include <memory>

#include "geometry/stack.hpp"
#include "math/preconditioner.hpp"
#include "math/solvers.hpp"
#include "thermal/fvm.hpp"
#include "thermal/transient.hpp"

using namespace photherm;

namespace {

/// A silicon slab with a hotspot, meshed at `cell` resolution, cooled on top.
struct BenchProblem {
  mesh::RectilinearMesh mesh;
  thermal::BoundarySet bcs;
};

BenchProblem make_problem(double cell) {
  const double a = 2e-3;
  geometry::Scene scene;
  geometry::LayerStackBuilder stack(a, a);
  stack.add_layer({"die", "silicon", 300e-6});
  stack.emit(scene);
  geometry::Block heat;
  heat.name = "hotspot";
  heat.box = geometry::Box3::make({a / 4, a / 4, 0}, {a / 2, a / 2, 100e-6});
  heat.material = scene.materials().id_of("silicon");
  heat.power = 1.0;
  scene.add(std::move(heat));
  mesh::MeshOptions options;
  options.default_max_cell_xy = cell;
  options.default_max_cell_z = 50e-6;
  thermal::BoundarySet bcs;
  bcs[thermal::Face::kZMax] = thermal::FaceBc::convection(5e3, 30.0);
  return BenchProblem{mesh::RectilinearMesh::build(scene, options), bcs};
}

struct BenchSystems {
  thermal::DiscreteSystem csr;
  std::size_t cells = 0;
};

BenchSystems make_systems(double cell) {
  const BenchProblem problem = make_problem(cell);
  return BenchSystems{thermal::assemble(problem.mesh, problem.bcs), problem.mesh.cell_count()};
}

void BM_SpMV(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  math::Vector x(systems.csr.matrix.cols(), 1.0);
  math::Vector y(systems.csr.matrix.rows());
  for (auto _ : state) {
    systems.csr.matrix.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * systems.csr.matrix.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(16)->Arg(32)->Arg(64);

/// One ILU(0) apply (forward and back sweep) at window size: /128 has
/// 98,304 cells, more than a builtin:corners ONI window (85,544). The
/// sweeps are serial, so this is the per-iteration cost CG cannot thread.
void BM_Ilu0Apply(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  const math::Ilu0Preconditioner precond(systems.csr.matrix);
  const math::Vector r(systems.csr.matrix.rows(), 1.0);
  math::Vector z;
  for (auto _ : state) {
    precond.apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * systems.cells));
}
BENCHMARK(BM_Ilu0Apply)->Arg(128)->Unit(benchmark::kMicrosecond);

/// Cold-start CG with ILU(0); counters report cells and iterations to
/// convergence. The rows keep the `BM_CgSweep/ilu0/*` names and the `ilu0`
/// label that BENCH_solver.json gates on.
void BM_CgSweep(benchmark::State& state) {
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  std::size_t iterations = 0;
  for (auto _ : state) {
    math::Vector x;
    const auto result = math::conjugate_gradient(systems.csr.matrix, systems.csr.rhs, x);
    iterations = result.iterations;
    benchmark::DoNotOptimize(result.iterations);
  }
  state.SetLabel("ilu0");
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.counters["iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_CgSweep)->Name("BM_CgSweep/ilu0")->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

/// FVM assembly straight into CSR rows: the per-window cost the design flow
/// pays before every window solve.
void BM_Assemble(benchmark::State& state) {
  const BenchProblem problem = make_problem(2e-3 / static_cast<double>(state.range(0)));
  std::size_t nnz = 0;
  for (auto _ : state) {
    auto system = thermal::assemble(problem.mesh, problem.bcs);
    nnz = system.matrix.nnz();
    benchmark::DoNotOptimize(system.rhs.data());
  }
  state.counters["cells"] = static_cast<double>(problem.mesh.cell_count());
  state.counters["nnz"] = static_cast<double>(nnz);
}
BENCHMARK(BM_Assemble)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

/// The transient hot path in miniature: one fixed stepping matrix
/// (A + C/dt, built as TransientSolver builds it), a sequence of
/// warm-started solves whose rhs advances with the state, exactly like
/// backward-Euler stepping. Two configurations:
///   0  per-solve ILU(0)  -- the pre-fix behaviour (refactor the
///                           preconditioner on every step)
///   1  cached ILU(0)     -- preconditioner built once
void BM_RepeatedWarmSolve(benchmark::State& state) {
  constexpr int kSteps = 25;
  const bool cache = state.range(1) == 1;
  const auto systems = make_systems(2e-3 / static_cast<double>(state.range(0)));
  const double dt = 5e-4;
  const math::CsrMatrix a = thermal::stepping_matrix(systems.csr, dt);
  math::Vector shift = systems.csr.capacitance;
  for (double& c : shift) {
    c /= dt;
  }

  std::unique_ptr<math::Preconditioner> cached;
  if (cache) {
    cached = std::make_unique<math::Ilu0Preconditioner>(a);
  }

  const std::size_t n = a.rows();
  std::size_t iterations = 0;
  for (auto _ : state) {
    math::Vector x(n, 30.0);
    math::Vector rhs(n);
    iterations = 0;
    for (int step = 0; step < kSteps; ++step) {
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = systems.csr.rhs[i] + shift[i] * x[i];
      }
      math::SolverOptions options;
      math::SolverResult result;
      if (cached) {
        result = math::conjugate_gradient(a, rhs, x, *cached, options);
      } else {
        result = math::conjugate_gradient(a, rhs, x, options);
      }
      iterations += result.iterations;
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel(cache ? "ilu0-cached" : "ilu0-per-solve");
  state.counters["cells"] = static_cast<double>(systems.cells);
  state.counters["iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_RepeatedWarmSolve)
    ->ArgsProduct({{32, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the JSON context carries the build type of
// *this* binary. gbench's own `library_build_type` key describes how the
// benchmark library was compiled, which says nothing about our optimisation
// flags; photherm_report's diff prefers photherm_build_type when refusing
// debug-vs-release comparisons.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("photherm_build_type", "release");
#else
  benchmark::AddCustomContext("photherm_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
