#include "traceio/reader.h"

#include <stdexcept>

#include "common/check.h"

namespace dtn::traceio {

// Concrete readers register themselves here; each is defined in its own
// translation unit (csv_reader.cpp, one_reader.cpp, imote_reader.cpp) and
// exposed through an accessor so the registry needs no global-constructor
// ordering tricks.
const TraceReader& csv_reader();
const TraceReader& one_reader();
const TraceReader& imote_reader();

const std::vector<const TraceReader*>& readers() {
  static const std::vector<const TraceReader*> all = {
      &csv_reader(), &one_reader(), &imote_reader()};
  return all;
}

const TraceReader* reader_for_format(const std::string& format) {
  for (const TraceReader* reader : readers()) {
    if (format == reader->format_name()) return reader;
  }
  return nullptr;
}

const TraceReader* detect_reader(std::string_view head) {
  for (const TraceReader* reader : readers()) {
    if (reader->sniff(head)) return reader;
  }
  return nullptr;
}

void parse_error(const std::string& source_name, std::size_t line_no,
                 const std::string& format, const std::string& why) {
  throw std::runtime_error(source_name + ":" + std::to_string(line_no) +
                           ": " + format + " parse error: " + why);
}

std::string trace_name_from_path(const std::string& path) {
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return name;
}

void NodeIdMap::note(std::int64_t raw) {
  DTN_CHECK(!finalized_, "NodeIdMap::note after finalize");
  map_.emplace(raw, 0);
}

void NodeIdMap::finalize() {
  // std::map iterates in ascending raw-id order, so dense ids are a pure
  // function of the id *set* — reordering input lines cannot change them.
  NodeId next = 0;
  for (auto& [raw, dense] : map_) dense = next++;
  finalized_ = true;
}

NodeId NodeIdMap::dense(std::int64_t raw) const {
  DTN_CHECK(finalized_, "NodeIdMap::dense before finalize");
  const auto it = map_.find(raw);
  DTN_CHECK(it != map_.end(), "NodeIdMap::dense of unnoted raw id");
  return it->second;
}

}  // namespace dtn::traceio
