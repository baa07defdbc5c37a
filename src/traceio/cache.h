// load_trace_any: the single entry point of the trace ingestion subsystem.
//
// Accepts any registered text format (CSV, ONE, iMote — reader.h) or a
// .dtntrace binary, and maintains a transparent binary sidecar cache:
// parsing `trace.csv` once writes `trace.csv.dtntrace`, and subsequent
// loads decode the sidecar instead of re-parsing the text whenever it is
// still fresh. Freshness (make-style, checksum-backed):
//
//   1. the sidecar's recorded source_size must equal the text file's size;
//   2. if the sidecar's mtime >= the source's mtime, it is fresh (fast
//      path, no hashing);
//   3. otherwise the source is re-hashed (FNV-1a) and compared against the
//      sidecar's recorded source_checksum — a touched-but-unchanged file
//      still hits.
//
// Cache observations (mtime reads, hit/miss counters) never feed
// simulation state: a stale sidecar re-parses the identical text and
// yields the identical trace, so caching cannot perturb determinism (see
// tools/lint_allowlist.txt).
#pragma once

#include <string>

#include "trace/trace.h"
#include "traceio/reader.h"

namespace dtn::traceio {

enum class CachePolicy {
  kUse,      ///< load fresh sidecars, write one after a text parse
  kBypass,   ///< never read or write sidecars (tools that must not leave
             ///< artifacts next to their inputs)
  kRefresh,  ///< ignore any existing sidecar, parse text, rewrite it
};

struct LoadOptions {
  TraceReadOptions read;
  CachePolicy cache = CachePolicy::kUse;
  /// Force a specific reader ("csv", "one", "imote", "binary"); empty =
  /// detect from the file extension (.dtntrace) and content sniffing.
  std::string format;
};

/// Loads a trace of any supported format from `path`, going through the
/// binary sidecar cache per `options.cache`. Sidecar write failures (e.g.
/// read-only directories) are non-fatal: the parsed trace is returned and
/// a one-line warning goes to stderr. Throws std::runtime_error on
/// unreadable/undetectable/corrupt input.
ContactTrace load_trace_any(const std::string& path,
                            const LoadOptions& options = {});

/// The sidecar path for a text trace: `<path>.dtntrace`.
std::string sidecar_path(const std::string& path);

}  // namespace dtn::traceio
