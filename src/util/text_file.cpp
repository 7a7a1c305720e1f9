#include "util/text_file.hpp"

#include <fstream>
#include <sstream>

namespace photherm {

std::string read_text_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  PH_REQUIRE(in.good(), "cannot open " + what + ": " + path);
  std::ostringstream text;
  text << in.rdbuf();
  PH_REQUIRE(!in.bad(), "failed while reading " + what + ": " + path);
  return text.str();
}

void write_text_file(const std::string& path, const std::string& payload,
                     const std::string& what) {
  std::ofstream out(path, std::ios::binary);
  PH_REQUIRE(out.good(), "cannot open " + what + ": " + path);
  out << payload;
  out.flush();
  PH_REQUIRE(out.good(), "failed while writing " + what + ": " + path);
}

void scan_records(std::string_view text, const std::string& what, const std::string& keyword,
                  const std::function<void(const std::string& name)>& open,
                  const std::function<void(const std::string& key, const std::string& value)>&
                      field) {
  bool in_record = false;
  std::size_t line_number = 0;
  while (!text.empty()) {
    ++line_number;
    const std::size_t eol = text.find('\n');
    const std::string_view raw = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    const std::string line = trim(std::string(raw.substr(0, raw.find('#'))));
    if (line.empty()) {
      continue;
    }
    try {
      if (line.compare(0, keyword.size(), keyword) == 0 &&
          (line.size() == keyword.size() || line[keyword.size()] == ' ' ||
           line[keyword.size()] == '\t')) {
        open(trim(line.substr(keyword.size())));
        in_record = true;
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        throw SpecError("expected `" + keyword + " <name>` or `key = value`, got `" + line + "`");
      }
      if (!in_record) {
        throw SpecError("`key = value` before any `" + keyword + " <name>` line");
      }
      field(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    } catch (const Error& e) {
      throw SpecError(what + " file, line " + std::to_string(line_number) + ": " + e.what());
    }
  }
}

}  // namespace photherm
