/// \file gate.hpp
/// \brief The benchmark's correctness gate. Outputs are the library's own
/// exact-mode CSV tables (scenario::batch_table, timeline::timeline_table);
/// the gate judges them row by row, so each failing design point or
/// playback counts once in the `failed` tally.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// A parsed CSV: row 0 is the header. The library's tables never quote a
/// cell (no scenario name holds a comma), so a plain split is exact.
using Rows = std::vector<std::vector<std::string>>;

Rows parse_csv(const std::string& text);

/// Reference-comparison tolerance: the one tests/scenario_smoke.cmake uses
/// (|a - b| <= tol * max(1, |a|, |b|)), loose enough for a ~1e-6 warm-start
/// change, tight enough for a real regression.
inline constexpr double kReferenceTolerance = 1e-4;

/// Equal text, or both numbers within `tol` as above.
bool cells_match(const std::string& a, const std::string& b, double tol);

/// Why `candidate` row differs from `reference` row; empty when they match.
std::string compare_rows(const std::vector<std::string>& reference,
                         const std::vector<std::string>& candidate,
                         const std::vector<std::string>& header, double tol);

/// Physical sanity of one batch_table row (every seed): finite numbers, a
/// heated die (ONI and chip averages above ambient), a non-negative
/// gradient. Empty when the row passes.
std::string check_design_row(const std::vector<std::string>& header,
                             const std::vector<std::string>& row);

/// Physical sanity of one timeline_table row: finite cells, no temperature
/// probe below ambient by more than solver noise (the playback starts at
/// ambient and only injects heat), no negative gradient probe. Empty when
/// the row passes.
std::string check_timeline_row(const std::vector<std::string>& header,
                               const std::vector<std::string>& row, double t_ambient);

/// Rows of a timeline_table kept in the committed reference: the last step
/// of every period (every `steps_per_period`-th step).
Rows reference_timeline_rows(const Rows& table, std::size_t steps_per_period);

std::string read_file(const std::string& path);
/// Write via a temporary + rename, so a reader never sees half a file.
void write_file(const std::string& path, const std::string& text);
bool file_exists(const std::string& path);

/// Data-row indices (0-based, header excluded) where two exact-mode CSVs
/// differ byte for byte; a row missing on one side differs.
std::vector<std::size_t> differing_rows(const std::string& a, const std::string& b);

/// Doctor a reference and show every gate fires: a 1e-3 relative change to
/// one cell, a flipped byte between two runs, and a field whose energy
/// balance is broken. Returns the list of gates that did NOT fire (empty
/// on success).
std::vector<std::string> self_check(const std::string& reference_dir);

}  // namespace perfbench
