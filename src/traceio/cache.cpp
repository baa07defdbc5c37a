#include "traceio/cache.h"

#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/instrument.h"
#include "traceio/binary.h"

namespace dtn::traceio {
namespace {

/// The whole file, read once; every decoder parses this buffer in place.
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

bool is_binary(const std::string& path, std::string_view bytes) {
  return std::string_view(path).ends_with(".dtntrace") ||
         bytes.starts_with(
             std::string_view(kBinaryMagic, sizeof(kBinaryMagic)));
}

}  // namespace

ContactTrace load_trace_any(const std::string& path,
                            const LoadOptions& options) {
  DTN_SCOPED_TIMER(kTraceLoad);
  const TraceReader* reader = nullptr;
  if (!options.format.empty() && options.format != "binary") {
    reader = reader_for_format(options.format);
    if (reader == nullptr) {
      throw std::runtime_error("unknown trace format '" + options.format +
                               "' (csv, one, imote or binary)");
    }
  }
  const std::string bytes = read_file(path);
  if (reader == nullptr) {
    if (options.format == "binary" || is_binary(path, bytes)) {
      return read_trace_binary(bytes, path, options.read.min_node_count);
    }
    // Sniff the first few KiB only: enough for any header or first row.
    reader = detect_reader(std::string_view(bytes).substr(0, 4096));
    if (reader == nullptr) {
      throw std::runtime_error(
          path + ": cannot detect trace format (not CSV, a ONE "
                 "connectivity report, an iMote contact log or .dtntrace)");
    }
  }
  return reader->read(bytes, trace_name_from_path(path), path, options.read);
}

}  // namespace dtn::traceio
