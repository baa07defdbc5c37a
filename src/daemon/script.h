// Deterministic ingest/query scripting for the daemon.
//
// dtnd (and the daemon tests) drive a Daemon from two inputs: a contact
// feed (an in-memory, start-time-sorted contact vector, replayed one
// Daemon::ingest at a time) and a query script. The script is the
// replayed clock — `advance <t>` pulls the feed up to stream time t, the
// query commands interrogate the daemon in between — so one script run is
// a pure function of (trace bytes, script bytes, config) and its output
// gates byte-for-byte across runs and thread counts.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "daemon/daemon.h"
#include "trace/contact_event.h"

namespace dtn::daemon {

/// A replay position in a contact vector. The vector is not owned and must
/// outlive the feed; the Daemon checks its order as it ingests.
class ReplayFeed {
 public:
  explicit ReplayFeed(const std::vector<ContactEvent>& contacts)
      : contacts_(&contacts) {}

  /// Ingests every remaining contact with start < limit; returns how many.
  std::size_t advance_until(Daemon& daemon, Time limit);

  /// Ingests everything left in the feed; returns how many.
  std::size_t drain(Daemon& daemon);

  bool exhausted() const { return next_ == contacts_->size(); }

 private:
  const std::vector<ContactEvent>* contacts_;
  std::size_t next_ = 0;
};

/// Executes `script` line by line against the daemon, writing one output
/// line per command to `out`. Lines and tokens follow common/scan.h's
/// grammar. Commands ('#' starts a comment line):
///   advance <t>                  ingest feed contacts with start < t
///   drain                        ingest the rest of the feed
///   repair                       force a repair batch now
///   ncl <k>                      top-k central nodes
///   weight <src> <dst> <budget>  path weight at the given time budget
///   place <src> <k>              placement ranking for content at src
///   stats                        writer-side counters + current epoch
/// Every query line is stamped `@<epoch> lag=<staleness>`. Doubles print
/// with %.17g, so output is byte-identical across runs and thread counts.
/// Returns the number of commands executed; throws std::runtime_error
/// naming the script line on a malformed command, a wrong argument count,
/// a non-finite time, a count below 1 or a node outside [0, node_count).
std::size_t run_script(Daemon& daemon, ReplayFeed& feed,
                       std::string_view script, std::ostream& out);

}  // namespace dtn::daemon
