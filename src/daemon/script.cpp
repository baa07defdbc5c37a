#include "daemon/script.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/scan.h"

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

/// "@<epoch> lag=<staleness>", appended into one string: GCC 12 at -O3
/// reports a false -Wrestrict inside `"@" + std::string&&`.
std::string stamp(const QueryInfo& info) {
  std::string out = "@";
  out += std::to_string(info.epoch);
  out += " lag=";
  out += fmt(info.staleness);
  return out;
}

[[noreturn]] void script_error(std::size_t line_no, const std::string& why,
                               std::string_view line) {
  throw std::runtime_error("script line " + std::to_string(line_no) + ": " +
                           why + ": " + std::string(line));
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

std::size_t run_script(Daemon& daemon, ReplayFeed& feed,
                       std::string_view script, std::ostream& out) {
  std::size_t executed = 0;
  scan::LineWalker lines(script);
  std::string_view line;
  while (lines.next(line)) {
    // No command takes more than three arguments, so a fifth word is
    // always an error.
    std::string_view words[5];
    const std::size_t count = scan::split_words(line, words);
    if (count == 0 || words[0].starts_with('#')) continue;

    auto malformed = [&]() {
      script_error(lines.line_no(), "malformed command", line);
    };
    auto expect_args = [&](std::size_t n) {
      if (count != n + 1) malformed();
    };
    auto time_arg = [&](std::size_t i) {
      Time t = 0.0;
      if (!scan::number(words[i], t) || !std::isfinite(t)) malformed();
      return t;
    };
    auto count_arg = [&](std::size_t i) {
      int k = 0;
      if (!scan::number(words[i], k) || k < 1) malformed();
      return k;
    };
    auto node_arg = [&](std::size_t i) {
      NodeId node = kNoNode;
      if (!scan::number(words[i], node)) malformed();
      if (node < 0 || node >= daemon.node_count()) {
        script_error(lines.line_no(),
                     "node " + std::to_string(node) + " outside [0, " +
                         std::to_string(daemon.node_count()) + ")",
                     line);
      }
      return node;
    };

    const std::string_view cmd = words[0];
    if (cmd == "advance") {
      expect_args(1);
      const Time limit = time_arg(1);
      const std::size_t n = feed.advance_until(daemon, limit);
      out << "advance " << fmt(limit) << " -> ingested " << n << " t="
          << fmt(daemon.watermark()) << "\n";
    } else if (cmd == "drain") {
      expect_args(0);
      const std::size_t n = feed.drain(daemon);
      out << "drain -> ingested " << n << "\n";
    } else if (cmd == "repair") {
      expect_args(0);
      daemon.repair_now();
      out << "repair -> epoch " << daemon.snapshot()->epoch << "\n";
    } else if (cmd == "ncl") {
      expect_args(1);
      const int k = count_arg(1);
      const NclAnswer answer = daemon.ncl_set(k);
      out << "ncl " << k << " " << stamp(answer.info) << " :";
      for (const NodeId node : answer.central) out << " " << node;
      out << "\n";
    } else if (cmd == "weight") {
      expect_args(3);
      const NodeId src = node_arg(1);
      const NodeId dst = node_arg(2);
      const Time budget = time_arg(3);
      const WeightAnswer answer = daemon.path_weight(src, dst, budget);
      out << "weight " << src << " " << dst << " " << fmt(budget) << " "
          << stamp(answer.info) << " : " << fmt(answer.weight) << "\n";
    } else if (cmd == "place") {
      expect_args(2);
      const NodeId src = node_arg(1);
      const int k = count_arg(2);
      const PlacementAnswer answer = daemon.placement_for(src, k);
      out << "place " << src << " " << k << " " << stamp(answer.info) << " :";
      for (std::size_t i = 0; i < answer.ranked.size(); ++i) {
        out << " " << answer.ranked[i] << ":" << fmt(answer.weights[i]);
      }
      out << "\n";
    } else if (cmd == "stats") {
      expect_args(0);
      const Daemon::Stats& s = daemon.stats();
      out << "stats : contacts=" << s.contacts_ingested
          << " batches=" << s.repair_batches << " edges=" << s.edge_updates
          << " roots=" << s.roots_repaired << " full=" << s.full_rebuilds
          << " audits=" << s.audit_rebuilds
          << " epochs=" << s.snapshots_published << "\n";
    } else {
      malformed();
    }
    ++executed;
  }
  return executed;
}

}  // namespace dtn::daemon
