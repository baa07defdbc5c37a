// Span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark itself, around its calls into each
// library layer: name, start, end, parent, and the workload's root span id
// that every span of one run shares. Calls too frequent to record one by
// one (scheme hooks, daemon ingests, reader queries) are folded into
// per-parent aggregates. Everything stays in memory until the run ends and
// is then written out as Chrome trace-event JSON plus a self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A layer span times a call into one library layer. A group span only
/// gathers layer calls (the root, one scheme's cell, the daemon's replay):
/// time it spends outside its children is glue that no layer accounts for.
enum class SpanKind { kLayer, kGroup };

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 only for the root span
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kLayer;
};

/// Calls folded into one row under `parent`. Track 0 is the thread that
/// drives the workload: its rows nest inside their parent's interval.
/// Other tracks ran beside it (reader threads) and are reported but not
/// subtracted from any parent.
struct Aggregate {
  int parent = -1;
  std::string name;
  int track = 0;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
};

/// One row of the self-time table.
struct SelfTime {
  std::string name;
  int track = 0;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< inclusive
  std::int64_t self_ns = 0;   ///< minus the track-0 children it contains
};

/// `text` with JSON's special characters escaped, without the quotes.
std::string json_escape(const std::string& text);

class Tracer {
 public:
  /// Opens a span that starts now. The first span opened is the root and
  /// must have parent -1; every later one needs an existing parent. The
  /// root is always a group span.
  int begin(const std::string& name, int parent,
            SpanKind kind = SpanKind::kLayer);
  void end(int id);

  /// Records an interval that was timed by the caller.
  int record(const std::string& name, int parent, std::int64_t start_ns,
             std::int64_t end_ns, SpanKind kind = SpanKind::kLayer);

  /// Adds `calls` calls totalling `total_ns` to the (parent, name, track)
  /// row.
  void aggregate(int parent, const std::string& name, std::uint64_t calls,
                 std::int64_t total_ns, int track = 0);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t duration_ns(int id) const;

  /// One row per (name, track), in first-seen order.
  std::vector<SelfTime> self_times() const;

  /// Self time of every layer span and every track-0 aggregate: the part
  /// of the root's wall time that some layer accounts for. Group spans add
  /// nothing, so an untimed call inside one lowers the sum.
  std::int64_t attributed_ns() const;

  /// True when attributed_ns() is within `tolerance` (a share) of the
  /// root's duration.
  bool self_times_add_up(double tolerance) const;

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  std::string chrome_json(const std::string& workload) const;

 private:
  std::vector<std::int64_t> child_ns() const;

  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// A span covering the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent,
             SpanKind kind = SpanKind::kLayer)
      : tracer_(tracer), id_(tracer.begin(name, parent, kind)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
