// CSV output for contact traces.
//
// Format (one contact per line, header first):
//   start,duration,a,b
// Times are seconds, printed with 17 significant digits so they read back
// exactly; node ids are 0-based integers. Reading this format, and the
// other trace formats, lives one layer up in src/traceio/.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace dtn {

/// Writes the trace to a stream / file. Throws std::runtime_error on I/O
/// failure.
void write_trace_csv(const ContactTrace& trace, std::ostream& out);
void save_trace_csv(const ContactTrace& trace, const std::string& path);

}  // namespace dtn
