#include "common/scan.h"

namespace dtn::scan {
namespace {

constexpr std::string_view kBlanks = " \t";

std::string_view trim(std::string_view text) {
  const std::size_t first = text.find_first_not_of(kBlanks);
  if (first == std::string_view::npos) return {};
  return text.substr(first, text.find_last_not_of(kBlanks) - first + 1);
}

}  // namespace

bool LineWalker::next(std::string_view& line) {
  if (rest_.empty()) return false;
  const std::size_t end = rest_.find('\n');
  line = rest_.substr(0, end);
  rest_ = end == std::string_view::npos ? std::string_view{}
                                        : rest_.substr(end + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  ++line_no_;
  return true;
}

std::size_t split_csv(std::string_view line,
                      std::span<std::string_view> fields) {
  for (std::size_t count = 0;; ++count) {
    const std::size_t comma = line.find(',');
    if (count < fields.size()) fields[count] = trim(line.substr(0, comma));
    if (comma == std::string_view::npos) return count + 1;
    line.remove_prefix(comma + 1);
  }
}

std::size_t split_words(std::string_view line,
                        std::span<std::string_view> fields) {
  for (std::size_t count = 0;; ++count) {
    const std::size_t start = line.find_first_not_of(kBlanks);
    if (start == std::string_view::npos) return count;
    line.remove_prefix(start);
    const std::size_t end = line.find_first_of(kBlanks);
    if (count < fields.size()) fields[count] = line.substr(0, end);
    if (end == std::string_view::npos) return count + 1;
    line.remove_prefix(end);
  }
}

}  // namespace dtn::scan
