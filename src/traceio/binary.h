// The .dtntrace compact binary trace format (version 1).
//
// Re-parsing a multi-hundred-thousand-contact text trace through iostreams
// for every sweep costs orders of magnitude more than the simulation's own
// per-contact work; this format lets a trace be parsed once and then
// loaded from its sidecar (DESIGN.md §8). Layout, all fixed-width fields
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
//   48     8    source_size (u64): byte size of the text file this sidecar
//               caches; 0 for standalone traces
//   56     8    source_checksum (u64): FNV-1a of the text file's bytes
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
// bytes. Loaders verify magic, version, endianness, checksum, record count
// and sort order; any mismatch throws (never a partial trace).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace dtn::traceio {

inline constexpr char kBinaryMagic[8] = {'D', 'T', 'N', 'T',
                                         'R', 'A', 'C', 'E'};
inline constexpr std::uint32_t kBinaryVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

/// 64-bit FNV-1a over a byte range, seedable for incremental use.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = kFnvOffset);

/// Streaming FNV-1a of a whole file. Throws std::runtime_error on I/O
/// failure.
std::uint64_t fnv1a_file(const std::string& path);

/// Everything the header says about a binary trace, available without
/// decoding a single record (the sidecar freshness check reads only this).
struct BinaryTraceMeta {
  std::uint32_t version = 0;
  NodeId node_count = 0;
  std::uint64_t contact_count = 0;
  Time start_time = 0.0;
  Time end_time = 0.0;
  std::uint64_t source_size = 0;      ///< 0 = standalone (not a sidecar)
  std::uint64_t source_checksum = 0;
  std::uint64_t payload_checksum = 0;
  std::string name;
};

/// Writes the trace in .dtntrace format. `source_size`/`source_checksum`
/// describe the text file a sidecar caches (0/0 for standalone saves).
/// Throws std::runtime_error on I/O failure.
void write_trace_binary(const ContactTrace& trace, std::ostream& out,
                        std::uint64_t source_size = 0,
                        std::uint64_t source_checksum = 0);
void save_trace_binary(const ContactTrace& trace, const std::string& path,
                       std::uint64_t source_size = 0,
                       std::uint64_t source_checksum = 0);

/// Reads and validates just the header, leaving the stream positioned at
/// the first record. `source_name` contextualizes errors.
BinaryTraceMeta read_binary_header(std::istream& in,
                                   const std::string& source_name);

/// Loads a whole binary trace (header + all records, fully validated).
/// `min_node_count` mirrors the text loaders.
ContactTrace read_trace_binary(std::istream& in,
                               const std::string& source_name,
                               NodeId min_node_count = 0);
ContactTrace load_trace_binary(const std::string& path,
                               NodeId min_node_count = 0);

}  // namespace dtn::traceio
