// The .dtntrace compact binary trace format (version 1).
//
// A lossless interchange format for contact traces: doubles travel as
// IEEE-754 bit patterns, never through decimal text, so every value
// (denormals, values that do not survive shortest-form printing)
// round-trips exactly, and the delta-encoded records take fewer bytes than
// the CSV rendering. `tracetool convert` writes it; load_trace_any reads it
// by extension or magic (DESIGN.md §8). Layout, all fixed-width fields
// little-endian regardless of host byte order:
//
//   offset size field
//   0      8    magic "DTNTRACE"
//   8      4    version (u32) = 1
//   12     4    endianness tag (u32) = 0x01020304, written LE; a reader
//               seeing 0x04030201 is looking at a foreign-order file
//   16     4    node_count (u32)
//   20     4    flags (u32, reserved, 0)
//   24     8    contact_count (u64)
//   32     8    start_time (f64 bit pattern)
//   40     8    end_time (f64 bit pattern)
//   48     16   reserved: written as zero and ignored on read (files from
//               earlier writers may carry other values here)
//   64     8    payload_checksum (u64): FNV-1a of the encoded records
//   72     4    name_length (u32)
//   76     n    trace name (UTF-8, no terminator)
//   76+n   ...  contact records, delta-encoded (below), sorted by
//               ContactEventOrder
//
// Record encoding (per contact, LEB128 varints — byte-oriented, so
// endian-neutral):
//
//   varint( bswap64(bits(start)    XOR bits(previous start)) )
//   varint( bswap64(bits(duration) XOR bits(previous duration)) )
//   varint( zigzag(a - previous a) )
//   varint( b - a - 1 )                                  // b > a always
//
// XOR-of-bit-patterns round-trips doubles exactly (no float arithmetic on
// the deltas), and sorted traces share high mantissa/exponent bits between
// neighbours, so after the byte swap the varint usually fits in a few
// bytes. The decoder verifies magic, version, endianness, checksum, record
// count, node range, finite non-negative times and sort order; any mismatch
// throws (never a partial trace).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/trace.h"

namespace dtn::traceio {

inline constexpr char kBinaryMagic[8] = {'D', 'T', 'N', 'T',
                                         'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kBinaryVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

/// 64-bit FNV-1a over a byte range (the payload checksum).
std::uint64_t fnv1a(const void* data, std::size_t size);

/// Everything the header says about a binary trace.
struct BinaryTraceMeta {
  std::uint32_t version = 0;
  NodeId node_count = 0;
  std::uint64_t contact_count = 0;
  Time start_time = 0.0;
  Time end_time = 0.0;
  std::uint64_t payload_checksum = 0;
  std::string name;
};

/// Writes the trace in .dtntrace format. Throws std::runtime_error on I/O
/// failure.
void write_trace_binary(const ContactTrace& trace, std::ostream& out);
void save_trace_binary(const ContactTrace& trace, const std::string& path);

/// Reads and validates just the header at the front of `bytes`.
/// `source_name` contextualizes errors.
BinaryTraceMeta read_binary_header(std::string_view bytes,
                                   const std::string& source_name);

/// Decodes a whole binary trace (header + all records, fully validated)
/// from the file's bytes. `min_node_count` mirrors the text readers.
ContactTrace read_trace_binary(std::string_view bytes,
                               const std::string& source_name,
                               NodeId min_node_count = 0);

}  // namespace dtn::traceio
