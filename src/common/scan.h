// One strict scanner for every text input: trace files, dtnd scripts and
// command-line numbers all read their tokens through it.
//
// The grammar:
//   * a line ends at '\n'; one trailing '\r' is stripped, so CRLF files
//     read like LF files; lines are numbered from 1;
//   * CSV fields are separated by commas, and spaces and tabs around each
//     field are trimmed; word fields are separated by runs of spaces and
//     tabs;
//   * a number is a whole field that std::from_chars parses completely: no
//     leading '+', no "0x" prefix, no blanks and nothing after it ("40abc",
//     "0x10", "+1" and, for an integer, "3.5" all fail). A floating-point
//     field may read "inf" or "nan"; callers that need a finite value
//     check for it.
#pragma once

#include <charconv>
#include <cstddef>
#include <span>
#include <string_view>
#include <system_error>

namespace dtn::scan {

/// Parses the whole of `text` as a T. Returns false, leaving `out`
/// unchanged, when `text` is empty, out of range or holds anything else.
template <typename T>
bool number(std::string_view text, T& out) {
  if (text.empty()) return false;
  const char* const end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

/// Walks a buffer line by line. The buffer must outlive the walker and
/// every line it hands out.
class LineWalker {
 public:
  explicit LineWalker(std::string_view text) : rest_(text) {}

  /// Stores the next line, without its terminator, in `line`; returns
  /// false once the buffer is used up.
  bool next(std::string_view& line);

  /// 1-based number of the line next() returned last.
  std::size_t line_no() const { return line_no_; }

 private:
  std::string_view rest_;
  std::size_t line_no_ = 0;
};

/// Splits `line` at commas and stores the first fields.size() fields,
/// trimmed. Returns how many fields the line has, which may exceed
/// fields.size(); an empty line is one empty field.
std::size_t split_csv(std::string_view line,
                      std::span<std::string_view> fields);

/// Splits `line` at runs of spaces and tabs and stores the first
/// fields.size() words. Returns how many words the line has (0 for a blank
/// line), which may exceed fields.size().
std::size_t split_words(std::string_view line,
                        std::span<std::string_view> fields);

}  // namespace dtn::scan
