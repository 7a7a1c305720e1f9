/// \file text_file.hpp
/// \brief Checked whole-file text I/O, the line walk every text input goes
/// through, and the record format of scenario files (scenario/scenario.hpp)
/// and timeline checkpoints (timeline/checkpoint.hpp).
///
/// Line walk (for_each_line): split at `\n`, drop a trailing `\r`, number
/// lines from 1. It gives `#` no meaning: each reader (record files, the
/// lint config, photherm_report's gate rules and metrics CSVs, photherm_cli
/// diff) keeps its own comment and blank-line rules. Any photherm::Error a
/// reader raises on a line surfaces as SpecError("<source>, line N: ..."),
/// <source> naming the format and, for a file, its path.
///
/// Record grammar:
///
///     # photherm <title> (<count> <keyword>s)
///
///     <keyword> <name>
///     key = value
///     key = value
///
/// `#` starts a comment that runs to the end of the line (strip_comment);
/// blank lines are skipped and every line is trimmed. A `<keyword> <name>`
/// line opens a record and `key = value` lines fill it until the next one.
/// Each format is declared once, as a RecordFormat: a table of {key, write,
/// read} fields. The writer emits each field's values as `key = value` lines
/// in table order (several lines for a repeated key, none for an absent
/// one); the reader hands each line to its field's parser.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
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

/// `message` located at line `line` of `source`: "<source>, line N: <message>".
std::string line_message(const std::string& source, std::size_t line,
                         const std::string& message);

/// Call `on_line(line, number)` for every line of `text` (see the file
/// comment); `line` views `text` and excludes the `\n` and a trailing `\r`.
/// Every photherm::Error `on_line` throws is rethrown as
/// SpecError(line_message(source, number, its message)).
template <typename OnLine>
void for_each_line(std::string_view text, const std::string& source, OnLine&& on_line) {
  std::size_t number = 0;
  while (!text.empty()) {
    ++number;
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    try {
      on_line(line, number);
    } catch (const Error& e) {
      throw SpecError(line_message(source, number, e.what()));
    }
  }
}

/// `line` up to its first `#`, trimmed: the comment rule of the record
/// files, the lint config and the gate rules.
std::string_view strip_comment(std::string_view line);

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
                out = static_cast<T>(parse_uint(value, key, std::numeric_limits<T>::max()));
              }
            }};
  }
};

/// A line-oriented text format of named records (see the file comment).
template <typename Record>
struct RecordFormat {
  std::string what;     ///< error source: "<what>, line N" ("scenario file")
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

  /// Parse `text`, read from the file at `path` (empty for in-memory text;
  /// errors name it when set). `open(name)` returns the record a
  /// `<keyword> <name>` line starts, which the following `key = value`
  /// lines fill.
  template <typename Open>
  void read(std::string_view text, const std::string& path, Open&& open) const {
    Record* record = nullptr;
    const auto on_line = [&](std::string_view raw, std::size_t) {
      const std::string_view line = strip_comment(raw);
      if (line.empty()) {
        return;
      }
      if (line.substr(0, keyword.size()) == keyword &&
          (line.size() == keyword.size() || line[keyword.size()] == ' ' ||
           line[keyword.size()] == '\t')) {
        record = &open(trim(line.substr(keyword.size())));
        return;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        throw SpecError("expected `" + keyword + " <name>` or `key = value`, got `" +
                        std::string(line) + "`");
      }
      if (record == nullptr) {
        throw SpecError("`key = value` before any `" + keyword + " <name>` line");
      }
      const std::string key = trim(line.substr(0, eq));
      for (const RecordField<Record>& f : fields) {
        if (f.key == key) {
          f.read(*record, trim(line.substr(eq + 1)), key);
          return;
        }
      }
      throw SpecError("unknown key `" + key + "`; known keys: " + join(keys(), ", "));
    };
    for_each_line(text, path.empty() ? what : what + " " + path, on_line);
  }
};

}  // namespace photherm
