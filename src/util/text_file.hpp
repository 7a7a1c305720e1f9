/// \file text_file.hpp
/// \brief Checked whole-file text I/O, and the line-oriented record format
/// that scenario files (scenario/scenario.hpp) and timeline checkpoints
/// (timeline/checkpoint.hpp) share.
///
/// Record grammar:
///
///     # photherm <title> (<count> <keyword>s)
///
///     <keyword> <name>
///     key = value
///     key = value
///
/// `#` starts a comment that runs to the end of the line; blank lines are
/// skipped and every line is trimmed. A `<keyword> <name>` line opens a
/// record and `key = value` lines fill it until the next one. Each format is
/// declared once, as a RecordFormat: a table of {key, write, read} fields.
/// The writer emits each field's values as `key = value` lines in table
/// order (several lines for a repeated key, none for an absent one); the
/// reader hands each line to its field's parser. Any error raised while
/// reading surfaces as SpecError("<what> file, line N: <message>").
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace photherm {

/// Whole contents of a text file. Throws Error naming `what` and the path
/// when the file cannot be opened or read.
std::string read_text_file(const std::string& path, const std::string& what);

/// Create (or truncate) `path` and write `payload` to it. Throws Error
/// naming `what` and the path when the file cannot be opened or the flushed
/// write fails.
void write_text_file(const std::string& path, const std::string& payload,
                     const std::string& what);

/// Stream `text` through the record grammar: `open(name)` for every
/// `<keyword> <name>` line, `field(key, value)` for every `key = value`
/// line of an open record. Grammar errors and every photherm::Error a
/// callback throws surface as SpecError("<what> file, line N: ...").
void scan_records(std::string_view text, const std::string& what, const std::string& keyword,
                  const std::function<void(const std::string& name)>& open,
                  const std::function<void(const std::string& key, const std::string& value)>&
                      field);

/// One key of a record format.
template <typename Record>
struct RecordField {
  std::string key;
  /// The values to write, one `key = value` line each; none means absent.
  std::function<std::vector<std::string>(const Record&)> write;
  /// Fill the record from one value (`key` names the field in errors).
  std::function<void(Record&, const std::string& value, const std::string& key)> read;

  /// A field holding one double, unsigned integer, int or bool, reached
  /// through `access(record)` (a reference-returning generic lambda).
  /// Doubles are written in their shortest round-trip spelling, so
  /// parse(serialize(x)) reproduces x bit for bit.
  template <typename Access>
  static RecordField scalar(std::string key, Access access) {
    return {std::move(key),
            [access](const Record& r) -> std::vector<std::string> {
              const auto& value = access(r);
              using T = std::remove_cvref_t<decltype(value)>;
              if constexpr (std::is_same_v<T, double>) {
                return {format_shortest(value)};
              } else if constexpr (std::is_same_v<T, bool>) {
                return {value ? "true" : "false"};
              } else {
                // ph-lint: allow(serialization) integral field; integers round-trip exactly
                return {std::to_string(value)};
              }
            },
            [access](Record& r, const std::string& value, const std::string& key) {
              auto& out = access(r);
              using T = std::remove_cvref_t<decltype(out)>;
              if constexpr (std::is_same_v<T, double>) {
                out = parse_double(value, key);
              } else if constexpr (std::is_same_v<T, bool>) {
                out = parse_bool(value, key);
              } else {
                out = static_cast<T>(parse_uint(value, key));
              }
            }};
  }
};

/// A line-oriented text format of named records (see the file comment).
template <typename Record>
struct RecordFormat {
  std::string what;     ///< error prefix: "<what> file, line N"
  std::string keyword;  ///< opens a record: "<keyword> <name>"
  std::string title;    ///< header comment: "# photherm <title> (...)"
  std::vector<RecordField<Record>> fields;

  /// The keys in serialization order.
  std::vector<std::string> keys() const {
    std::vector<std::string> k;
    k.reserve(fields.size());
    for (const RecordField<Record>& f : fields) {
      k.push_back(f.key);
    }
    return k;
  }

  /// The file's header comment for `count` records.
  std::string header(std::size_t count) const {
    // ph-lint: allow(serialization) integral record count
    return "# photherm " + title + " (" + std::to_string(count) + " " + keyword + "s)\n";
  }

  /// Append one record: a blank line, `<keyword> <name>`, then every
  /// field's `key = value` lines in table order.
  void append(std::string& out, const std::string& name, const Record& record) const {
    out += "\n" + keyword + " " + name + "\n";
    for (const RecordField<Record>& f : fields) {
      for (const std::string& value : f.write(record)) {
        out += f.key + " = " + value + "\n";
      }
    }
  }

  /// Parse `text`; `open(name)` returns the record a `<keyword> <name>`
  /// line starts, which the following `key = value` lines fill.
  template <typename Open>
  void read(std::string_view text, Open&& open) const {
    Record* record = nullptr;
    scan_records(
        text, what, keyword, [&](const std::string& name) { record = &open(name); },
        [&](const std::string& key, const std::string& value) {
          for (const RecordField<Record>& f : fields) {
            if (f.key == key) {
              f.read(*record, value, key);
              return;
            }
          }
          throw SpecError("unknown key `" + key + "`; known keys: " + join(keys(), ", "));
        });
  }
};

}  // namespace photherm
