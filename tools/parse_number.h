// Strict numeric flag parsing shared by the command-line tools.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/scan.h"

/// Parses the whole of `text` as a T (common/scan.h's number rule);
/// anything else (empty, trailing garbage, out of range) exits 2 naming
/// the flag.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T value{};
  if (!dtn::scan::number(text, value)) {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag.c_str(),
                 text);
    std::exit(2);
  }
  return value;
}
