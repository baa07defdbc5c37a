// Streaming contact iteration: the "stream everywhere" half of the
// subsystem's contract (DESIGN.md §8).
//
// The sim engine consumes contacts strictly in start-time order and never
// looks back, so it does not need a materialized std::vector<ContactEvent>
// — a pull-based cursor suffices, and a multi-GB .dtntrace runs in
// O(io-buffer) memory. run_simulation (sim/engine.h) takes a ContactCursor;
// the ContactTrace overload wraps the trace in a VectorContactCursor, so
// materialized and streamed runs are the same code path and bit-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/contact_event.h"
#include "trace/trace.h"
#include "traceio/binary.h"

namespace dtn::traceio {

/// Pull-based iterator over a time-sorted contact sequence. Contract:
/// emitted events are sorted by ContactEventOrder (consumers DTN_CHECK
/// this), and next() returns false exactly once, at end-of-stream.
class ContactCursor {
 public:
  virtual ~ContactCursor() = default;

  /// Advances to the next contact; false at end-of-stream.
  virtual bool next(ContactEvent& out) = 0;
};

/// Cursor over an in-memory event vector (e.g. ContactTrace::events()).
/// Does not own the vector; it must outlive the cursor.
class VectorContactCursor final : public ContactCursor {
 public:
  explicit VectorContactCursor(const std::vector<ContactEvent>& events)
      : events_(&events) {}

  bool next(ContactEvent& out) override {
    if (index_ == events_->size()) return false;
    out = (*events_)[index_++];
    return true;
  }

 private:
  const std::vector<ContactEvent>* events_;
  std::size_t index_ = 0;
};

/// Cursor streaming records straight out of a .dtntrace file in O(1)
/// memory. Header metadata (node count, span, contact count) is available
/// up front via meta(); corruption anywhere in the file throws from next().
class BinaryFileContactCursor final : public ContactCursor {
 public:
  explicit BinaryFileContactCursor(const std::string& path);
  ~BinaryFileContactCursor() override;

  const BinaryTraceMeta& meta() const;

  bool next(ContactEvent& out) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Drains a cursor into a vector (test/diagnostic helper; defeats the
/// point of streaming for anything large).
std::vector<ContactEvent> drain(ContactCursor& cursor);

}  // namespace dtn::traceio
