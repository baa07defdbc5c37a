// ONE-simulator connectivity report reader.
//
// The ONE (Opportunistic Network Environment) simulator's ConnectivityONE
// report emits one line per link event:
//
//   <time> CONN <host-a> <host-b> up
//   <time> CONN <host-a> <host-b> down
//
// An `up`/`down` pair becomes one ContactEvent. Host ids are arbitrary
// integers and are densely remapped by ascending raw id (NodeIdMap). Events
// may interleave across pairs but each pair's events must be time-ordered.
// Contacts still open at end-of-report close at the last timestamp seen
// (the report simply stopped while the link was up). Non-CONN report lines
// (ONE mixes event types when misconfigured) and `# comments` are skipped;
// strict mode rejects them instead, along with tokens after the link
// state, duplicate `up` events and `down` events without a matching `up`
// (tolerated otherwise, as real reports truncated mid-run produce both).
#include "traceio/reader.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/instrument.h"
#include "common/scan.h"

namespace dtn::traceio {
namespace {

constexpr const char* kFormat = "ONE connectivity report";

class OneReader final : public TraceReader {
 public:
  const char* format_name() const override { return "one"; }

  bool sniff(std::string_view head) const override {
    return head.find(" CONN ") != std::string_view::npos ||
           head.find("\tCONN\t") != std::string_view::npos;
  }

  ContactTrace read(std::string_view text, const std::string& trace_name,
                    const std::string& source_name,
                    const TraceReadOptions& options) const override {
    struct RawContact {
      Time start, end;
      std::int64_t a, b;
    };
    std::vector<RawContact> contacts;
    // Open link per raw (min, max) pair -> start time.
    std::map<std::pair<std::int64_t, std::int64_t>, Time> open;
    NodeIdMap ids;
    Time last_time = 0.0;
    bool any_line = false;

    scan::LineWalker lines(text);
    std::string_view line;
    while (lines.next(line)) {
      const std::size_t line_no = lines.line_no();
      if (line.empty() || line[0] == '#') continue;
      std::string_view words[5];
      const std::size_t count = scan::split_words(line, words);
      if (words[1] != "CONN") {
        if (options.strict) {
          parse_error(source_name, line_no, kFormat,
                      "expected '<time> CONN <a> <b> up|down'");
        }
        continue;  // other ONE report event types are not contacts
      }
      if (options.strict && count > 5) {
        parse_error(source_name, line_no, kFormat,
                    "trailing characters after the link state");
      }
      any_line = true;
      Time when = 0.0;
      if (!scan::number(words[0], when)) {
        parse_error(source_name, line_no, kFormat,
                    "malformed timestamp '" + std::string(words[0]) + "'");
      }
      if (!std::isfinite(when)) {
        parse_error(source_name, line_no, kFormat, "non-finite timestamp");
      }
      std::int64_t a = 0, b = 0;
      if (!scan::number(words[2], a) || !scan::number(words[3], b)) {
        parse_error(source_name, line_no, kFormat,
                    "malformed host id in '" + std::string(line) + "'");
      }
      if (a == b) {
        if (options.strict) {
          parse_error(source_name, line_no, kFormat, "self-contact (a == b)");
        }
        continue;
      }
      last_time = std::max(last_time, when);
      const std::pair<std::int64_t, std::int64_t> key{std::min(a, b),
                                                      std::max(a, b)};
      const std::string_view state = words[4];
      if (state == "up") {
        ids.note(a);
        ids.note(b);
        const auto [it, inserted] = open.emplace(key, when);
        if (!inserted) {
          if (options.strict) {
            parse_error(source_name, line_no, kFormat,
                        "duplicate 'up' for an already-open link");
          }
          // Keep the earlier start: the link has been up the whole time.
          (void)it;
        }
      } else if (state == "down") {
        const auto it = open.find(key);
        if (it == open.end()) {
          if (options.strict) {
            parse_error(source_name, line_no, kFormat,
                        "'down' without a matching 'up'");
          }
          continue;
        }
        if (when < it->second) {
          parse_error(source_name, line_no, kFormat,
                      "link goes down before it came up");
        }
        contacts.push_back({it->second, when, a, b});
        open.erase(it);
      } else {
        parse_error(source_name, line_no, kFormat,
                    "link state must be 'up' or 'down', got '" +
                        std::string(state) + "'");
      }
    }
    if (!any_line) {
      parse_error(source_name, 1, kFormat, "no CONN events in input");
    }
    // Links still up when the report ends lasted until the last timestamp.
    for (const auto& [key, start] : open) {
      contacts.push_back({start, std::max(last_time, start), key.first,
                          key.second});
    }

    ids.finalize();
    std::vector<ContactEvent> events;
    events.reserve(contacts.size());
    for (const RawContact& c : contacts) {
      ContactEvent e;
      e.start = c.start;
      e.duration = c.end - c.start;
      e.a = ids.dense(c.a);
      e.b = ids.dense(c.b);
      events.push_back(e);
      DTN_COUNT(kTraceContactsDecoded);
    }
    const NodeId node_count =
        std::max(options.min_node_count, ids.node_count());
    return ContactTrace(node_count, std::move(events), trace_name);
  }
};

}  // namespace

const TraceReader& one_reader() {
  static const OneReader reader;
  return reader;
}

}  // namespace dtn::traceio
