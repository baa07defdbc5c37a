// The native CSV format: `start,duration,a,b` per line.
//
// Times are seconds (floating point); node ids are 0-based integers. The
// canonical header is tolerated but not required, blank lines are skipped
// and extra columns are tolerated (exports carry them) unless strict. Real
// traces (e.g. CRAWDAD exports) convert to this format trivially, so the
// whole evaluation pipeline runs unchanged on real data.
#include "traceio/reader.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "common/instrument.h"
#include "common/scan.h"

namespace dtn::traceio {
namespace {

constexpr const char* kFormat = "trace CSV";

class CsvReader final : public TraceReader {
 public:
  const char* format_name() const override { return "csv"; }

  bool sniff(std::string_view head) const override {
    // Either the canonical header, or a first line shaped like
    // `<num>,<num>,<int>,<int>`. A comma before any whitespace separator is
    // the discriminator against the whitespace-separated formats.
    if (head.starts_with("start")) return true;
    for (const char c : head) {
      if (c == ',') return true;
      if (std::isspace(static_cast<unsigned char>(c))) break;
    }
    return false;
  }

  ContactTrace read(std::string_view text, const std::string& trace_name,
                    const std::string& source_name,
                    const TraceReadOptions& options) const override {
    // Every rejected row names its exact source location and the violated
    // invariant, so a malformed export fails loudly instead of silently
    // skewing Table-1 statistics.
    std::vector<ContactEvent> events;
    NodeId max_node = -1;
    auto parse_row = [&](std::string_view line, std::size_t line_no) {
      if (line.empty()) return;
      auto fail = [&](const char* why) {
        parse_error(source_name, line_no, kFormat,
                    std::string(why) + " in line '" + std::string(line) +
                        "'");
      };
      std::string_view fields[4];
      const std::size_t count = scan::split_csv(line, fields);
      ContactEvent e;
      if (count < 4 || !scan::number(fields[0], e.start) ||
          !scan::number(fields[1], e.duration) ||
          !scan::number(fields[2], e.a) || !scan::number(fields[3], e.b)) {
        fail("expected 'start,duration,a,b'");
      }
      if (options.strict && count > 4) {
        fail("trailing characters after the fourth field");
      }
      if (!std::isfinite(e.start) || !std::isfinite(e.duration)) {
        fail("non-finite start or duration");
      }
      if (options.strict && !events.empty() && e.start < events.back().start) {
        fail("contact start time goes backwards");
      }
      if (e.duration < 0.0) fail("negative contact duration");
      if (e.a < 0 || e.b < 0) fail("negative node id");
      // node_count is max id + 1, which must itself be a NodeId.
      constexpr NodeId kMaxId = std::numeric_limits<NodeId>::max() - 1;
      if (e.a > kMaxId || e.b > kMaxId) fail("node id too large");
      if (e.a == e.b) fail("self-contact (a == b)");
      max_node = std::max({max_node, e.a, e.b});
      events.push_back(e);
      DTN_COUNT(kTraceContactsDecoded);
    };

    scan::LineWalker lines(text);
    std::string_view line;
    if (!lines.next(line)) parse_error(source_name, 1, kFormat, "empty file");
    if (!line.starts_with("start")) parse_row(line, lines.line_no());
    while (lines.next(line)) parse_row(line, lines.line_no());

    const NodeId node_count = std::max(options.min_node_count, max_node + 1);
    return ContactTrace(node_count, std::move(events), trace_name);
  }
};

}  // namespace

const TraceReader& csv_reader() {
  static const CsvReader reader;
  return reader;
}

}  // namespace dtn::traceio
