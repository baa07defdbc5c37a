// Pluggable trace ingestion: one interface, many on-disk formats.
//
// The paper's evaluation is trace-driven (Infocom05/06, MIT Reality, UCSD;
// Table I), and real DTN datasets ship in heterogeneous formats. A
// TraceReader turns one such format into the canonical ContactTrace; the
// registry plus content sniffing make `load_trace_any` (cache.h) accept any
// of them behind a single entry point. Concrete readers:
//
//   csv    the repo's native format: `start,duration,a,b`
//   one    ONE-simulator connectivity reports: `<time> CONN <a> <b> up|down`
//   imote  CRAWDAD/Haggle-style pairwise iMote logs: `<a> <b> <start> <end>`
//          with sparse raw device ids (remapped densely), duplicate/overlap
//          merging and clock-offset normalization
//
// Every reader parses the file's bytes in place through common/scan.h, so
// all three share one line, field and number grammar.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"

namespace dtn::traceio {

struct TraceReadOptions {
  /// `node_count` of the result is max(dense node id) + 1 unless a larger
  /// value is given.
  NodeId min_node_count = 0;

  /// Strict mode turns every tolerated irregularity (trailing fields,
  /// non-CONN lines, duplicate `up` events, self-contacts, CSV rows whose
  /// start goes backwards) into a parse error with file:line context. Used
  /// by `tracetool validate`.
  bool strict = false;
};

/// One on-disk trace format. Implementations are stateless and registered
/// once in readers(); read() may be called concurrently on different
/// buffers.
class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Stable format identifier ("csv", "one", "imote").
  virtual const char* format_name() const = 0;

  /// True when `head` (the first few KiB of the file) looks like this
  /// format. Sniffing is ordered and first-match (see detect_reader).
  virtual bool sniff(std::string_view head) const = 0;

  /// Parses a whole file's bytes into a canonical trace. `source_name` is
  /// the "<source>:<line>" context for parse errors; the trace is named
  /// `trace_name`. Throws std::runtime_error on malformed input.
  virtual ContactTrace read(std::string_view text,
                            const std::string& trace_name,
                            const std::string& source_name,
                            const TraceReadOptions& options) const = 0;
};

/// All registered text readers, in sniffing priority order (csv, one,
/// imote). Pointers are to function-local statics and never expire.
const std::vector<const TraceReader*>& readers();

/// Reader by format_name(); nullptr when unknown.
const TraceReader* reader_for_format(const std::string& format);

/// First reader whose sniff() accepts `head`; nullptr when none match.
const TraceReader* detect_reader(std::string_view head);

/// Throws the canonical "<source>:<line>: <format> parse error: <why>".
[[noreturn]] void parse_error(const std::string& source_name,
                              std::size_t line_no, const std::string& format,
                              const std::string& why);

/// Trace name for a file path: basename with the final extension stripped.
std::string trace_name_from_path(const std::string& path);

/// Deterministic raw-id -> dense-id remapping shared by the ONE and iMote
/// readers: raw ids (arbitrary sparse integers) map to [0, N) by ascending
/// raw id, so the mapping depends only on the set of ids, never on line
/// order.
class NodeIdMap {
 public:
  /// Registers a raw id (idempotent). Only valid before finalize().
  void note(std::int64_t raw);

  /// Freezes the mapping; note() afterwards is a logic error.
  void finalize();

  /// Dense id of a previously noted raw id.
  NodeId dense(std::int64_t raw) const;

  NodeId node_count() const { return static_cast<NodeId>(map_.size()); }

 private:
  std::map<std::int64_t, NodeId> map_;
  bool finalized_ = false;
};

}  // namespace dtn::traceio
