#include "traceio/cache.h"

#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/instrument.h"

namespace dtn::traceio {
namespace {

/// The whole file, read once; the reader parses this buffer in place.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("cannot size trace file: " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), size)) {
    throw std::runtime_error("I/O error reading: " + path);
  }
  DTN_COUNT_N(kTraceBytesRead, bytes.size());
  return bytes;
}

}  // namespace

ContactTrace load_trace_any(const std::string& path,
                            const LoadOptions& options) {
  DTN_SCOPED_TIMER(kTraceLoad);
  const TraceReader* reader = nullptr;
  if (!options.format.empty()) {
    reader = reader_for_format(options.format);
    if (reader == nullptr) {
      throw std::runtime_error("unknown trace format '" + options.format +
                               "' (csv, one or imote)");
    }
  }
  const std::string bytes = read_file(path);
  if (reader == nullptr) {
    // Sniff the first few KiB only: enough for any header or first row.
    reader = detect_reader(std::string_view(bytes).substr(0, 4096));
    if (reader == nullptr) {
      throw std::runtime_error(
          path + ": cannot detect trace format (not CSV, a ONE "
                 "connectivity report or an iMote contact log)");
    }
  }
  return reader->read(bytes, trace_name_from_path(path), path, options.read);
}

}  // namespace dtn::traceio
