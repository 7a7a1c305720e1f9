/// \file methodology.hpp
/// \brief The paper's contribution: the thermal-aware design methodology
/// (Fig. 3). Pipeline: system specification -> steady-state thermal
/// simulation (coarse package solve + per-ONI fine windows) -> per-ONI
/// temperature/gradient extraction -> MR-heater design-space exploration ->
/// SNR analysis -> design report. Every steady-state evaluation, single
/// design or batch, runs through one engine: evaluate_thermal_batch().
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "noc/snr.hpp"
#include "soc/placement.hpp"
#include "thermal/two_level.hpp"
#include "util/csv.hpp"

namespace photherm::core {

/// Thermal summary of one ONI.
struct OniThermalReport {
  int oni = 0;
  double average = 0.0;        ///< ONI average temperature [degC]
  /// The paper's "gradient temperature" of an interface: spread between
  /// the per-device average temperatures (hot lasers vs cooler rings).
  double gradient = 0.0;
  double peak_spread = 0.0;    ///< raw max - min over every cell of the ONI
  double vcsel_average = 0.0;  ///< average over the VCSEL volumes
  double mr_average = 0.0;     ///< average over the MR volumes
  double vcsel_to_mr = 0.0;    ///< laser-to-ring average difference
};

struct ThermalReport {
  std::vector<OniThermalReport> onis;
  double chip_average = 0.0;    ///< over the heat-source layer
  double max_gradient = 0.0;    ///< worst intra-ONI gradient
  double oni_average = 0.0;     ///< mean of the ONI averages
  double oni_spread = 0.0;      ///< max - min of the ONI averages

  const OniThermalReport& hottest() const;
  Table to_table() const;
};

struct SnrReport {
  noc::NetworkResult network;
  double waveguide_length = 0.0;  ///< ring perimeter [m]
  std::size_t oni_count = 0;

  Table to_table() const;
};

struct DesignReport {
  OnocDesignSpec spec;
  ThermalReport thermal;
  std::optional<SnrReport> snr;  ///< absent for kAllTiles placement

  /// Design verdict: gradient below 1 degC (paper Sec. IV-C constraint)
  /// and every link closes.
  bool gradient_ok() const;
  bool links_ok() const;
};

/// Product of the coarse global pass: the built system plus the coarse
/// package-scale ThermalField. Immutable after construction and safe to
/// share read-only across threads — evaluate_thermal_batch() solves one per
/// distinct global scene and fans the per-ONI local windows of its thermal
/// problems out over it.
struct CoarseGlobalSolve {
  soc::SccSystem system;
  thermal::ThermalField field;
};

/// Orchestrates the methodology for one design point; reusable across
/// sweeps (benches mutate the spec between runs).
class ThermalAwareDesigner {
 public:
  /// Validates the spec (OnocDesignSpec::validate) before any meshing.
  explicit ThermalAwareDesigner(OnocDesignSpec spec);

  const OnocDesignSpec& spec() const { return spec_; }

  /// Build the 3-D system (scene + ONIs) for the current spec.
  soc::SccSystem build_system() const;

  /// Package boundary conditions for the current spec. Public so the
  /// timeline engine (timeline/playback.hpp) can assemble the transient
  /// stepping problem on the same scene the steady-state pipeline solves.
  thermal::BoundarySet boundary_conditions() const;

  /// Mesh options of the coarse package-scale pass (what solve_global()
  /// meshes with). Public for the same reason as boundary_conditions().
  mesh::MeshOptions global_mesh_options() const;

  /// Deterministic serialization of everything the coarse global solve
  /// depends on: scene blocks with material properties, boundary
  /// conditions and global mesh options (every solve runs the default
  /// SteadyStateOptions, so solver settings are not part of it). Two specs
  /// with equal keys produce bit-identical global fields (and identical
  /// systems), so the key is safe to use as a solve-cache key. The fine
  /// windows read more than the coarse pass does; thermal_key() extends
  /// this key with it. SNR knobs enter neither key.
  std::string global_scene_key() const;

  /// Key of the whole thermal problem: global_scene_key() plus everything
  /// the fine pass reads (oni_cell_xy, oni_cell_z, window_margin, the local
  /// mesh options, and the die and layer extents the window and chip-average
  /// queries are cut from). Two specs with equal keys produce bit-identical
  /// ThermalReports, and equal thermal keys imply equal global scene keys.
  /// SNR knobs (fanout, waveguides, wdm_channels, tech) deliberately do not
  /// enter the key, so a batch solves each distinct thermal problem once.
  std::string thermal_key() const;

  /// Run the coarse global pass: build the system and solve the
  /// package-scale steady state.
  CoarseGlobalSolve solve_global() const;

  /// Steady-state thermal evaluation of this design point:
  /// evaluate_thermal_batch() over {*this}. When `only_oni` is set, just
  /// that interface is refined (the paper's Fig. 9 tracks one interface).
  ThermalReport evaluate_thermal(std::optional<int> only_oni = std::nullopt) const;

  /// SNR analysis from ONI temperatures (ring placement only).
  SnrReport analyze_snr(const ThermalReport& thermal) const;

  /// Design report on a finished thermal evaluation: adds the SNR analysis
  /// (ring placement only). `thermal` must come from a spec with an equal
  /// thermal_key() (e.g. this one).
  DesignReport design_report(ThermalReport thermal) const;

  /// Full pipeline: design_report(evaluate_thermal()).
  DesignReport run() const;

 private:
  std::string make_global_key(const soc::SccSystem& system) const;

  OnocDesignSpec spec_;
};

/// Thermal reports of a list of design points (evaluate_thermal_batch).
struct ThermalBatch {
  std::vector<ThermalReport> reports;  ///< index-aligned with the designers
  std::size_t global_solves = 0;       ///< coarse global solves performed
  std::size_t thermal_solves = 0;      ///< distinct thermal problems solved
};

/// The steady-state engine. Every thermal evaluation — a single design,
/// the design-space sweeps and the scenario batch — runs through it, in
/// stages on the shared pool (util/thread_pool.hpp):
///  1. group the designs by thermal_key(), then the thermal problems by
///     global_scene_key() (with `share` off every design is its own group
///     and no key is computed);
///  2. one coarse global solve per global scene;
///  3. every ONI window of every thermal problem as one flat list of tasks
///     (only the interface with index `only_oni`, when set);
///  4. one ThermalReport per thermal problem.
/// Designs with equal thermal keys share the whole report, ones with equal
/// global keys the coarse field; shared results are bit-identical to cold
/// solves because the solver is deterministic, and every result lands at
/// its index, so the reports are bit-identical for every thread count.
/// `threads` is the width of every stage (0 inherits the budget). When
/// `label` is set, `label(i)` is the detail of design i's trace spans
/// (`batch.global_solve`, `batch.window` as "<label> oni<k>") and its
/// errors read "scenario `<label>`: ...".
ThermalBatch evaluate_thermal_batch(const std::vector<ThermalAwareDesigner>& designers,
                                    const std::function<std::string(std::size_t)>& label = {},
                                    std::optional<int> only_oni = std::nullopt,
                                    bool share = true, std::size_t threads = 0);

/// Index of the representative interface of a design: the ONI closest to
/// the die centre, which the Fig. 9/10 sweeps track.
int representative_oni(const OnocDesignSpec& spec);

/// Explore heater ratios and return (ratio, worst gradient, average) rows —
/// the Fig. 9-b / Fig. 10 experiment in library form. The gradient is
/// evaluated on the representative ONI closest to the die centre.
struct HeaterSweepPoint {
  double heater_ratio = 0.0;
  double p_heater = 0.0;       ///< [W]
  double gradient = 0.0;       ///< [degC]
  double oni_average = 0.0;    ///< [degC]
};

/// One evaluate_thermal_batch() call over the ratios: repeated ratios share
/// their thermal problem, and the rows are bit-identical for every thread
/// count.
std::vector<HeaterSweepPoint> explore_heater_ratios(const OnocDesignSpec& base,
                                                    const std::vector<double>& ratios);

/// Pick the sweep point with the smallest gradient.
const HeaterSweepPoint& best_heater_point(const std::vector<HeaterSweepPoint>& sweep);

}  // namespace photherm::core
