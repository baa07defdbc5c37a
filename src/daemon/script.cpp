#include "daemon/script.h"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace dtn::daemon {
namespace {

/// %.17g: shortest round-trippable decimal form, identical everywhere the
/// same double is produced — the byte-determinism workhorse of this tree's
/// reports.
std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

std::string stamp(const QueryInfo& info) {
  return "@" + std::to_string(info.epoch) + " lag=" + fmt(info.staleness);
}

[[noreturn]] void malformed(std::size_t line_no, const std::string& line) {
  throw std::runtime_error("script line " + std::to_string(line_no) +
                           ": malformed command: " + line);
}

}  // namespace

std::size_t ReplayFeed::advance_until(Daemon& daemon, Time limit) {
  const std::size_t first = next_;
  while (next_ < contacts_->size() && (*contacts_)[next_].start < limit) {
    daemon.ingest((*contacts_)[next_++]);
  }
  return next_ - first;
}

std::size_t ReplayFeed::drain(Daemon& daemon) {
  return advance_until(daemon, kNever);
}

std::size_t run_script(Daemon& daemon, ReplayFeed& feed, std::istream& script,
                       std::ostream& out) {
  std::size_t executed = 0;
  std::size_t line_no = 0;
  std::string line;
  while (std::getline(script, line)) {
    ++line_no;
    // Strip trailing CR so DOS-edited scripts behave identically.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream words(line);
    std::string cmd;
    if (!(words >> cmd) || cmd[0] == '#') continue;

    if (cmd == "advance") {
      Time limit = 0.0;
      if (!(words >> limit)) malformed(line_no, line);
      const std::size_t n = feed.advance_until(daemon, limit);
      out << "advance " << fmt(limit) << " -> ingested " << n << " t="
          << fmt(daemon.watermark()) << "\n";
    } else if (cmd == "drain") {
      const std::size_t n = feed.drain(daemon);
      out << "drain -> ingested " << n << "\n";
    } else if (cmd == "repair") {
      daemon.repair_now();
      out << "repair -> epoch " << daemon.snapshot()->epoch << "\n";
    } else if (cmd == "ncl") {
      int k = 0;
      if (!(words >> k) || k < 1) malformed(line_no, line);
      const NclAnswer answer = daemon.ncl_set(k);
      out << "ncl " << k << " " << stamp(answer.info) << " :";
      for (const NodeId node : answer.central) out << " " << node;
      out << "\n";
    } else if (cmd == "weight") {
      NodeId src = kNoNode;
      NodeId dst = kNoNode;
      Time budget = 0.0;
      if (!(words >> src >> dst >> budget)) malformed(line_no, line);
      const WeightAnswer answer = daemon.path_weight(src, dst, budget);
      out << "weight " << src << " " << dst << " " << fmt(budget) << " "
          << stamp(answer.info) << " : " << fmt(answer.weight) << "\n";
    } else if (cmd == "place") {
      NodeId src = kNoNode;
      int k = 0;
      if (!(words >> src >> k) || k < 1) malformed(line_no, line);
      const PlacementAnswer answer = daemon.placement_for(src, k);
      out << "place " << src << " " << k << " " << stamp(answer.info) << " :";
      for (std::size_t i = 0; i < answer.ranked.size(); ++i) {
        out << " " << answer.ranked[i] << ":" << fmt(answer.weights[i]);
      }
      out << "\n";
    } else if (cmd == "stats") {
      const Daemon::Stats& s = daemon.stats();
      out << "stats : contacts=" << s.contacts_ingested
          << " batches=" << s.repair_batches << " edges=" << s.edge_updates
          << " roots=" << s.roots_repaired << " full=" << s.full_rebuilds
          << " audits=" << s.audit_rebuilds
          << " epochs=" << s.snapshots_published << "\n";
    } else {
      malformed(line_no, line);
    }
    ++executed;
  }
  return executed;
}

}  // namespace dtn::daemon
