#include "trace/trace_io.h"

#include <fstream>
#include <stdexcept>

namespace dtn {

void write_trace_csv(const ContactTrace& trace, std::ostream& out) {
  out << "start,duration,a,b\n";
  out.precision(17);
  for (const auto& e : trace.events()) {
    out << e.start << ',' << e.duration << ',' << e.a << ',' << e.b << '\n';
  }
  if (!out) throw std::runtime_error("failed writing trace CSV");
}

void save_trace_csv(const ContactTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_trace_csv(trace, out);
}

}  // namespace dtn
