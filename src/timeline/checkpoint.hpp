/// \file checkpoint.hpp
/// \brief Text round-trip for paused playbacks. A checkpoint file is a
/// record file (util/text_file.hpp), the format of the scenario files, with
/// one `playback <name>` record per scenario of a paused batch:
///
///     playback burst_d0p5
///     base_dt = 0.2
///     time = 1.4
///     state = 25.1 25.3 ...
///     row = 0.2 1 14 25.1 26.0 ...
///
/// The `cycle` and `row` keys repeat, in order. Every double is written in
/// its shortest round-trip spelling (util::format_shortest), so
/// parse(serialize(x)) reproduces x bit for bit — which is what makes a
/// resumed playback byte-identical to an uninterrupted one.
#pragma once

#include <string>
#include <vector>

#include "timeline/playback.hpp"

namespace photherm::timeline {

/// Serialize checkpoints at full (shortest round-trip) precision.
std::string serialize_checkpoints(const std::vector<PlaybackCheckpoint>& checkpoints);

/// Parse a checkpoint file read from `path` (empty for in-memory text).
/// Throws SpecError ("checkpoint file <path>, line N: ...") on unknown
/// keys, malformed numbers, counters that are not non-negative integers,
/// or missing mandatory fields.
std::vector<PlaybackCheckpoint> parse_checkpoints(const std::string& text,
                                                  const std::string& path = "");

/// Read + parse a checkpoint file; throws photherm::Error on I/O failure.
std::vector<PlaybackCheckpoint> load_checkpoint_file(const std::string& path);

/// Serialize + write a checkpoint file; throws photherm::Error on I/O
/// failure.
void save_checkpoint_file(const std::string& path,
                          const std::vector<PlaybackCheckpoint>& checkpoints);

}  // namespace photherm::timeline
