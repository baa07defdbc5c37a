// Strict numeric flag parsing shared by the command-line tools.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

/// Parses the whole of `text` as a T; anything else (empty, trailing
/// garbage, out of range) exits 2 naming the flag.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || ptr == text) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag.c_str(),
                 text);
    std::exit(2);
  }
  return value;
}
