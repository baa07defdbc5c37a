// CRAWDAD/Haggle-style pairwise iMote contact log reader.
//
// Each line records one sighting between two Bluetooth devices:
//
//   <device-a> <device-b> <start> <end> [extra columns ignored]
//
// with absolute timestamps (Unix epoch seconds in the published datasets)
// and sparse raw device ids. Canonicalization, in order:
//
//   1. node-id remapping     sparse raw ids -> dense [0, N), by ascending
//                            raw id (deterministic in the id set)
//   2. duplicate/overlap     per pair, overlapping or touching sightings
//      merging               merge into one contact (two radios scanning
//                            each other log the same encounter twice)
//   3. clock-offset          the earliest start becomes t = 0, so epoch
//      normalization         timestamps don't leak into Time arithmetic
//
// Self-sightings (a == b, a scanner artifact in real logs) are skipped;
// strict mode rejects them and any extra trailing columns instead.
#include "traceio/reader.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/instrument.h"
#include "common/scan.h"

namespace dtn::traceio {
namespace {

constexpr const char* kFormat = "iMote contact log";

class ImoteReader final : public TraceReader {
 public:
  const char* format_name() const override { return "imote"; }

  bool sniff(std::string_view head) const override {
    // First non-comment line: >= 4 whitespace-separated numeric tokens and
    // no comma (CSV) or CONN keyword (ONE). Sniffed last, so this only has
    // to reject the other formats' shapes.
    scan::LineWalker lines(head);
    std::string_view line;
    while (lines.next(line)) {
      if (line.empty() || line[0] == '#') continue;
      if (line.find(',') != std::string_view::npos) return false;
      if (line.find("CONN") != std::string_view::npos) return false;
      std::string_view words[4];
      if (scan::split_words(line, words) < 4) return false;
      double value = 0.0;
      for (const std::string_view word : words) {
        if (!scan::number(word, value)) return false;
      }
      return true;
    }
    return false;
  }

  ContactTrace read(std::string_view text, const std::string& trace_name,
                    const std::string& source_name,
                    const TraceReadOptions& options) const override {
    struct Interval {
      Time start, end;
    };
    // Per raw (min, max) pair, all sighting intervals. std::map keeps the
    // merge fold in deterministic pair order.
    std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Interval>>
        sightings;
    NodeIdMap ids;
    Time earliest = kNever;
    scan::LineWalker lines(text);
    std::string_view line;
    while (lines.next(line)) {
      const std::size_t line_no = lines.line_no();
      if (line.empty() || line[0] == '#') continue;
      std::string_view words[4];
      const std::size_t count = scan::split_words(line, words);
      std::int64_t a = 0, b = 0;
      Time start = 0.0, end = 0.0;
      if (count < 4 || !scan::number(words[0], a) ||
          !scan::number(words[1], b) || !scan::number(words[2], start) ||
          !scan::number(words[3], end)) {
        parse_error(source_name, line_no, kFormat,
                    "expected '<a> <b> <start> <end>' in line '" +
                        std::string(line) + "'");
      }
      if (options.strict && count > 4) {
        parse_error(source_name, line_no, kFormat,
                    "trailing characters after the fourth field");
      }
      if (!std::isfinite(start) || !std::isfinite(end)) {
        parse_error(source_name, line_no, kFormat, "non-finite timestamp");
      }
      if (end < start) {
        parse_error(source_name, line_no, kFormat,
                    "contact ends before it starts");
      }
      if (a == b) {
        if (options.strict) {
          parse_error(source_name, line_no, kFormat,
                      "self-sighting (a == b)");
        }
        continue;
      }
      ids.note(a);
      ids.note(b);
      const std::pair<std::int64_t, std::int64_t> key{std::min(a, b),
                                                      std::max(a, b)};
      sightings[key].push_back({start, end});
      earliest = std::min(earliest, start);
    }
    if (sightings.empty()) {
      parse_error(source_name, 1, kFormat, "no contacts in input");
    }
    ids.finalize();

    // Clock-offset normalization: shift the whole trace so the earliest
    // sighting starts at t = 0.
    const Time offset = earliest;

    std::vector<ContactEvent> events;
    for (auto& [key, intervals] : sightings) {
      std::sort(intervals.begin(), intervals.end(),
                [](const Interval& x, const Interval& y) {
                  return x.start != y.start ? x.start < y.start
                                            : x.end < y.end;
                });
      // Merge overlapping or touching sightings of the same pair.
      std::size_t merged_from = 0;
      while (merged_from < intervals.size()) {
        Time start = intervals[merged_from].start;
        Time end = intervals[merged_from].end;
        std::size_t next = merged_from + 1;
        while (next < intervals.size() && intervals[next].start <= end) {
          end = std::max(end, intervals[next].end);
          ++next;
        }
        ContactEvent e;
        e.start = start - offset;
        e.duration = end - start;
        e.a = ids.dense(key.first);
        e.b = ids.dense(key.second);
        events.push_back(e);
        DTN_COUNT(kTraceContactsDecoded);
        merged_from = next;
      }
    }
    const NodeId node_count =
        std::max(options.min_node_count, ids.node_count());
    return ContactTrace(node_count, std::move(events), trace_name);
  }
};

}  // namespace

const TraceReader& imote_reader() {
  static const ImoteReader reader;
  return reader;
}

}  // namespace dtn::traceio
