// load_trace_any: the single entry point of the trace ingestion subsystem.
//
// Reads the file into memory once and parses that buffer in place with a
// registered text reader (CSV, ONE, iMote — reader.h), chosen by content
// sniffing unless forced. A load never writes a file.
#pragma once

#include <string>

#include "trace/trace.h"
#include "traceio/reader.h"

namespace dtn::traceio {

/// Kept only because perfbench/harness.cpp sets LoadOptions::cache.
enum class CachePolicy { kBypass };

struct LoadOptions {
  TraceReadOptions read;
  /// Kept only because perfbench/harness.cpp sets it; loads ignore it.
  CachePolicy cache = CachePolicy::kBypass;
  /// Force a specific reader ("csv", "one", "imote"); empty = detect from
  /// the file's content.
  std::string format;
};

/// Loads a trace of any supported format from `path`. Throws
/// std::runtime_error on unreadable, undetectable or malformed input.
ContactTrace load_trace_any(const std::string& path,
                            const LoadOptions& options = {});

}  // namespace dtn::traceio
