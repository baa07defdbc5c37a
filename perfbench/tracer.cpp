#include "tracer.h"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

/// Chrome trace events count in microseconds; keep the nanosecond digits.
std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

int Tracer::begin(const std::string& name, int parent, SpanKind kind) {
  return record(name, parent, now_ns(), 0, kind);
}

void Tracer::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = now_ns();
}

int Tracer::record(const std::string& name, int parent, std::int64_t start_ns,
                   std::int64_t end_ns, SpanKind kind) {
  const int id = static_cast<int>(spans_.size());
  if ((id == 0) != (parent == -1) || parent < -1 || parent >= id) {
    throw std::logic_error("span " + name + " has no valid parent");
  }
  if (id == 0) kind = SpanKind::kGroup;
  spans_.push_back(Span{id, parent, name, start_ns, end_ns, kind});
  return id;
}

void Tracer::aggregate(int parent, const std::string& name,
                       std::uint64_t calls, std::int64_t total_ns,
                       int track) {
  if (parent < 0 || parent >= static_cast<int>(spans_.size())) {
    throw std::logic_error("aggregate " + name + " has no valid parent");
  }
  for (Aggregate& row : aggregates_) {
    if (row.parent == parent && row.track == track && row.name == name) {
      row.calls += calls;
      row.total_ns += total_ns;
      return;
    }
  }
  aggregates_.push_back(Aggregate{parent, name, track, calls, total_ns});
}

std::int64_t Tracer::duration_ns(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  return span.end_ns - span.start_ns;
}

std::vector<std::int64_t> Tracer::child_ns() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (const Aggregate& row : aggregates_) {
    if (row.track == 0) {
      covered[static_cast<std::size_t>(row.parent)] += row.total_ns;
    }
  }
  return covered;
}

std::vector<SelfTime> Tracer::self_times() const {
  const std::vector<std::int64_t> covered = child_ns();
  std::vector<SelfTime> rows;
  std::map<std::pair<std::string, int>, std::size_t> index;
  const auto row = [&](const std::string& name, int track) -> SelfTime& {
    const auto [it, fresh] = index.try_emplace({name, track}, rows.size());
    if (fresh) rows.push_back(SelfTime{name, track, 0, 0, 0});
    return rows[it->second];
  };
  for (const Span& span : spans_) {
    SelfTime& r = row(span.name, 0);
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++r.calls;
    r.total_ns += duration;
    r.self_ns += duration - covered[static_cast<std::size_t>(span.id)];
  }
  for (const Aggregate& a : aggregates_) {
    SelfTime& r = row(a.name, a.track);
    r.calls += a.calls;
    r.total_ns += a.total_ns;
    r.self_ns += a.total_ns;
  }
  return rows;
}

std::int64_t Tracer::attributed_ns() const {
  const std::vector<std::int64_t> covered = child_ns();
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.kind == SpanKind::kLayer) {
      total += span.end_ns - span.start_ns -
               covered[static_cast<std::size_t>(span.id)];
    }
  }
  for (const Aggregate& row : aggregates_) {
    if (row.track == 0) total += row.total_ns;
  }
  return total;
}

bool Tracer::self_times_add_up(double tolerance) const {
  if (spans_.empty()) return false;
  const auto wall = static_cast<double>(duration_ns(0));
  const auto gap = static_cast<double>(attributed_ns()) - wall;
  return gap <= tolerance * wall && -gap <= tolerance * wall;
}

std::string Tracer::chrome_json(const std::string& workload) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"" +
      json_escape(workload) + "\",\"workload_span\":0},\"traceEvents\":[\n";
  for (const Span& span : spans_) {
    if (span.id != 0) out += ",\n";
    out += "{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
           (span.kind == SpanKind::kLayer ? "layer" : "group") +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" +
           micros(span.start_ns - origin) +
           ",\"dur\":" + micros(span.end_ns - span.start_ns) +
           ",\"args\":{\"id\":" + std::to_string(span.id) +
           ",\"parent\":" + std::to_string(span.parent) +
           ",\"workload_span\":0,\"aggregates\":[";
    bool first = true;
    for (const Aggregate& a : aggregates_) {
      if (a.parent != span.id) continue;
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + json_escape(a.name) +
             "\",\"track\":" + std::to_string(a.track) +
             ",\"calls\":" + std::to_string(a.calls) +
             ",\"total_us\":" + micros(a.total_ns) + "}";
    }
    out += "]}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
