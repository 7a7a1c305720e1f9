#include "timeline/checkpoint.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/text_file.hpp"

namespace photherm::timeline {

namespace {

using Field = RecordField<PlaybackCheckpoint>;
using Values = std::vector<std::string>;

std::string fmt_vector(const math::Vector& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) {
      out += ' ';
    }
    out += format_shortest(v[i]);
  }
  return out;
}

math::Vector parse_vector(const std::string& value, const std::string& what) {
  math::Vector v;
  for (const std::string& token : split_words(value)) {
    v.push_back(parse_double(token, what));
  }
  return v;
}

/// The checkpoint format: every key once, in serialization order. `cycle`
/// and `row` repeat (one line per buffered field / per trace step).
const RecordFormat<PlaybackCheckpoint>& format() {
  static const RecordFormat<PlaybackCheckpoint> checkpoint_format{
      "checkpoint file",
      "playback",
      "timeline checkpoint",
      {
          Field::scalar("base_dt", [](auto& c) -> auto& { return c.base_time_step; }),
          Field::scalar("current_dt", [](auto& c) -> auto& { return c.current_time_step; }),
          Field::scalar("time", [](auto& c) -> auto& { return c.time; }),
          Field::scalar("step_in_period", [](auto& c) -> auto& { return c.step_in_period; }),
          Field::scalar("last_step_delta", [](auto& c) -> auto& { return c.last_step_delta; }),
          Field::scalar("in_tolerance_run", [](auto& c) -> auto& { return c.in_tolerance_run; }),
          Field::scalar("cycle_count", [](auto& c) -> auto& { return c.cycle_count; }),
          Field::scalar("cycle_hold", [](auto& c) -> auto& { return c.cycle_hold; }),
          Field::scalar("cycle_max_delta", [](auto& c) -> auto& { return c.cycle_max_delta; }),
          {"state", [](const PlaybackCheckpoint& c) -> Values { return {fmt_vector(c.state)}; },
           [](PlaybackCheckpoint& c, const std::string& v, const std::string& key) {
             c.state = parse_vector(v, key);
           }},
          {"cycle",
           [](const PlaybackCheckpoint& c) {
             Values lines;
             for (const math::Vector& slot : c.cycle_buffer) {
               lines.push_back(fmt_vector(slot));
             }
             return lines;
           },
           [](PlaybackCheckpoint& c, const std::string& v, const std::string& key) {
             c.cycle_buffer.push_back(parse_vector(v, key));
           }},
          Field::scalar("period", [](auto& c) -> auto& { return c.trace.period; }),
          Field::scalar("final_dt", [](auto& c) -> auto& { return c.trace.final_time_step; }),
          Field::scalar("dt_growths", [](auto& c) -> auto& { return c.trace.dt_growths; }),
          Field::scalar("reference_tolerance",
                        [](auto& c) -> auto& { return c.trace.reference_tolerance; }),
          Field::scalar("settled", [](auto& c) -> auto& { return c.trace.settled; }),
          Field::scalar("settle_time", [](auto& c) -> auto& { return c.trace.settle_time; }),
          Field::scalar("settle_step", [](auto& c) -> auto& { return c.trace.settle_step; }),
          Field::scalar("final_delta", [](auto& c) -> auto& { return c.trace.final_delta; }),
          Field::scalar("periodic", [](auto& c) -> auto& { return c.trace.periodic_steady; }),
          Field::scalar("periodic_time",
                        [](auto& c) -> auto& { return c.trace.periodic_steady_time; }),
          Field::scalar("periodic_step",
                        [](auto& c) -> auto& { return c.trace.periodic_steady_step; }),
          Field::scalar("cycle_delta", [](auto& c) -> auto& { return c.trace.cycle_delta; }),
          {"stats",
           [](const PlaybackCheckpoint& c) -> Values {
             const thermal::TransientStats& s = c.trace.stats;
             std::ostringstream os;
             os << s.steps << " " << s.total_cg_iterations << " " << s.max_cg_iterations << " "
                << s.reassemblies << " " << s.preconditioner_builds;
             return {os.str()};
           },
           [](PlaybackCheckpoint& c, const std::string& v, const std::string& key) {
             // 4-counter form: checkpoints written before preconditioner_builds
             // existed; they resume with the new counter at zero.
             const std::vector<std::string> parts = split_words(v);
             if (parts.size() != 4 && parts.size() != 5) {
               throw SpecError(key + " expects 4 or 5 counters");
             }
             thermal::TransientStats& s = c.trace.stats;
             s.steps = parse_uint(parts[0], key);
             s.total_cg_iterations = parse_uint(parts[1], key);
             s.max_cg_iterations = parse_uint(parts[2], key);
             s.reassemblies = parse_uint(parts[3], key);
             s.preconditioner_builds = parts.size() == 5 ? parse_uint(parts[4], key) : 0;
           }},
          {"probes",
           [](const PlaybackCheckpoint& c) -> Values { return {join(c.trace.probe_names, " ")}; },
           [](PlaybackCheckpoint& c, const std::string& v, const std::string&) {
             c.trace.probe_names = split_words(v);
           }},
          {"row",
           [](const PlaybackCheckpoint& c) {
             const TimelineTrace& t = c.trace;
             Values lines;
             lines.reserve(t.step_count());
             for (std::size_t k = 0; k < t.step_count(); ++k) {
               std::ostringstream line;
               line << format_shortest(t.times[k]) << " " << format_shortest(t.power_scale[k])
                    << " " << t.cg_iterations[k];
               for (double sample : t.samples[k]) {
                 line << " " << format_shortest(sample);
               }
               lines.push_back(line.str());
             }
             return lines;
           },
           [](PlaybackCheckpoint& c, const std::string& v, const std::string& key) {
             const std::vector<std::string> parts = split_words(v);
             if (parts.size() < 3) {
               throw SpecError(key + " expects time, power scale, CG iterations, samples");
             }
             TimelineTrace& t = c.trace;
             t.times.push_back(parse_double(parts[0], key));
             t.power_scale.push_back(parse_double(parts[1], key));
             t.cg_iterations.push_back(parse_uint(parts[2], key));
             math::Vector& samples = t.samples.emplace_back();
             for (std::size_t i = 3; i < parts.size(); ++i) {
               samples.push_back(parse_double(parts[i], key));
             }
           }},
      }};
  return checkpoint_format;
}

}  // namespace

std::string serialize_checkpoints(const std::vector<PlaybackCheckpoint>& checkpoints) {
  std::string out = format().header(checkpoints.size());
  for (const PlaybackCheckpoint& c : checkpoints) {
    PH_REQUIRE(!c.scenario.empty(), "checkpoint without a scenario name; cannot serialize");
    const TimelineTrace& t = c.trace;
    const std::size_t steps = t.step_count();
    PH_REQUIRE(t.power_scale.size() == steps && t.cg_iterations.size() == steps &&
                   t.samples.size() == steps,
               "trace of `" + c.scenario + "` is not index-aligned; cannot serialize");
    format().append(out, c.scenario, c);
  }
  return out;
}

std::vector<PlaybackCheckpoint> parse_checkpoints(const std::string& text,
                                                  const std::string& path) {
  std::vector<PlaybackCheckpoint> checkpoints;
  format().read(text, path, [&](const std::string& name) -> PlaybackCheckpoint& {
    if (name.empty()) {
      throw SpecError("playback line without a scenario name");
    }
    PlaybackCheckpoint& ckpt = checkpoints.emplace_back();
    ckpt.scenario = name;
    return ckpt;
  });
  for (PlaybackCheckpoint& c : checkpoints) {
    if (c.base_time_step <= 0.0 || c.current_time_step <= 0.0 || c.state.empty()) {
      throw SpecError("checkpoint `" + c.scenario +
                      "` is incomplete: base_dt, current_dt and state are mandatory");
    }
    c.trace.scenario = c.scenario;
  }
  return checkpoints;
}

std::vector<PlaybackCheckpoint> load_checkpoint_file(const std::string& path) {
  return parse_checkpoints(read_text_file(path, "checkpoint file"), path);
}

void save_checkpoint_file(const std::string& path,
                          const std::vector<PlaybackCheckpoint>& checkpoints) {
  write_text_file(path, serialize_checkpoints(checkpoints), "checkpoint output file");
}

}  // namespace photherm::timeline
