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

std::string line_message(const std::string& source, std::size_t line,
                         const std::string& message) {
  return source + ", line " + std::to_string(line) + ": " + message;
}

std::string_view strip_comment(std::string_view line) {
  return trim_view(line.substr(0, line.find('#')));
}

}  // namespace photherm
