#include "traceio/binary.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "common/instrument.h"

namespace dtn::traceio {
namespace {

constexpr std::size_t kHeaderFixedSize = 76;

[[noreturn]] void binary_error(const std::string& source,
                               const std::string& why) {
  throw std::runtime_error(source + ": .dtntrace error: " + why);
}

constexpr std::uint64_t bswap64(std::uint64_t v) {
  return ((v & 0x00000000000000ffull) << 56) |
         ((v & 0x000000000000ff00ull) << 40) |
         ((v & 0x0000000000ff0000ull) << 24) |
         ((v & 0x00000000ff000000ull) << 8) |
         ((v & 0x000000ff00000000ull) >> 8) |
         ((v & 0x0000ff0000000000ull) >> 24) |
         ((v & 0x00ff000000000000ull) >> 40) |
         ((v & 0xff00000000000000ull) >> 56);
}

constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// ---- little-endian fixed-width append/read (host-order independent) ----

void append_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<char>((v & 0x7fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

void write_trace_binary(const ContactTrace& trace, std::ostream& out) {
  // Encode the payload first: the header carries its checksum.
  std::string payload;
  payload.reserve(trace.size() * 8);
  std::uint64_t prev_start_bits = 0;
  std::uint64_t prev_duration_bits = 0;
  NodeId prev_a = 0;
  for (const ContactEvent& e : trace.events()) {
    const std::uint64_t start_bits = std::bit_cast<std::uint64_t>(e.start);
    const std::uint64_t duration_bits =
        std::bit_cast<std::uint64_t>(e.duration);
    append_varint(payload, bswap64(start_bits ^ prev_start_bits));
    append_varint(payload, bswap64(duration_bits ^ prev_duration_bits));
    append_varint(payload, zigzag_encode(static_cast<std::int64_t>(e.a) -
                                         static_cast<std::int64_t>(prev_a)));
    DTN_CHECK(e.b > e.a, "canonical contact order a < b");
    append_varint(payload,
                  static_cast<std::uint64_t>(e.b - e.a - 1));
    prev_start_bits = start_bits;
    prev_duration_bits = duration_bits;
    prev_a = e.a;
  }

  std::string header;
  header.reserve(kHeaderFixedSize + trace.name().size());
  header.append(kBinaryMagic, sizeof(kBinaryMagic));
  append_u32(header, kBinaryVersion);
  append_u32(header, kEndianTag);
  append_u32(header, static_cast<std::uint32_t>(trace.node_count()));
  append_u32(header, 0);  // flags, reserved
  append_u64(header, static_cast<std::uint64_t>(trace.size()));
  append_u64(header, std::bit_cast<std::uint64_t>(trace.start_time()));
  append_u64(header, std::bit_cast<std::uint64_t>(trace.end_time()));
  append_u64(header, 0);  // reserved
  append_u64(header, 0);  // reserved
  append_u64(header, fnv1a(payload.data(), payload.size()));
  append_u32(header, static_cast<std::uint32_t>(trace.name().size()));
  header.append(trace.name());

  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw std::runtime_error("failed writing binary trace");
}

void save_trace_binary(const ContactTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_trace_binary(trace, out);
}

BinaryTraceMeta read_binary_header(std::string_view bytes,
                                   const std::string& source_name) {
  if (bytes.size() < kHeaderFixedSize) {
    binary_error(source_name, "truncated header");
  }
  const auto* raw = reinterpret_cast<const unsigned char*>(bytes.data());
  if (!std::equal(kBinaryMagic, kBinaryMagic + sizeof(kBinaryMagic),
                  bytes.begin())) {
    binary_error(source_name, "bad magic (not a .dtntrace file)");
  }
  BinaryTraceMeta meta;
  meta.version = read_u32(&raw[8]);
  if (meta.version != kBinaryVersion) {
    binary_error(source_name,
                 "unsupported version " + std::to_string(meta.version) +
                     " (expected " + std::to_string(kBinaryVersion) + ")");
  }
  const std::uint32_t endian = read_u32(&raw[12]);
  if (endian != kEndianTag) {
    binary_error(source_name, endian == 0x04030201u
                                  ? "byte-swapped endianness tag"
                                  : "bad endianness tag");
  }
  meta.node_count = static_cast<NodeId>(read_u32(&raw[16]));
  // raw[20..23]: reserved flags, ignored.
  meta.contact_count = read_u64(&raw[24]);
  meta.start_time = std::bit_cast<Time>(read_u64(&raw[32]));
  meta.end_time = std::bit_cast<Time>(read_u64(&raw[40]));
  // raw[48..63]: reserved, ignored.
  meta.payload_checksum = read_u64(&raw[64]);
  const std::uint32_t name_length = read_u32(&raw[72]);
  if (name_length > 4096) {
    binary_error(source_name, "implausible trace name length");
  }
  if (bytes.size() - kHeaderFixedSize < name_length) {
    binary_error(source_name, "truncated trace name");
  }
  meta.name = bytes.substr(kHeaderFixedSize, name_length);
  return meta;
}

namespace {

/// Decodes the meta.contact_count records in `payload`. Each record must
/// carry a finite start and a finite non-negative duration, name nodes in
/// [0, N) and not sort before its predecessor; the payload checksum must
/// match and the payload must end with the last record. Throws on any
/// violation.
std::vector<ContactEvent> decode_records(std::string_view payload,
                                         const std::string& source_name,
                                         const BinaryTraceMeta& meta) {
  // Every record is at least four one-byte varints: a count the payload
  // cannot hold is rejected before it sizes the allocation below.
  if (meta.contact_count > payload.size() / 4) {
    binary_error(source_name, "header declares " +
                                  std::to_string(meta.contact_count) +
                                  " contacts, more than the payload holds");
  }
  if (fnv1a(payload.data(), payload.size()) != meta.payload_checksum) {
    binary_error(source_name, "payload checksum mismatch (corrupt file)");
  }
  const auto* next = reinterpret_cast<const unsigned char*>(payload.data());
  const auto* const end = next + payload.size();
  auto read_varint = [&]() -> std::uint64_t {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (next == end) binary_error(source_name, "truncated record payload");
      const std::uint8_t byte = *next++;
      value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    binary_error(source_name, "overlong varint in record payload");
  };

  std::vector<ContactEvent> events;
  events.reserve(static_cast<std::size_t>(meta.contact_count));
  std::uint64_t prev_start_bits = 0;
  std::uint64_t prev_duration_bits = 0;
  NodeId prev_a = 0;
  for (std::uint64_t i = 0; i < meta.contact_count; ++i) {
    const std::uint64_t start_bits = prev_start_bits ^ bswap64(read_varint());
    const std::uint64_t duration_bits =
        prev_duration_bits ^ bswap64(read_varint());
    const std::int64_t a_delta = zigzag_decode(read_varint());
    const std::uint64_t b_gap = read_varint();

    ContactEvent e;
    e.start = std::bit_cast<Time>(start_bits);
    e.duration = std::bit_cast<Time>(duration_bits);
    if (!std::isfinite(e.start) || !std::isfinite(e.duration)) {
      binary_error(source_name, "record carries a non-finite time");
    }
    // a = prev_a + a_delta and b = a + 1 + b_gap must land in [0, N). The
    // deltas are untrusted, so the bounds are checked before the additions.
    const std::int64_t n = meta.node_count;
    if (a_delta < -std::int64_t{prev_a} || a_delta >= n - prev_a) {
      binary_error(source_name, "record references node outside [0, N)");
    }
    e.a = static_cast<NodeId>(prev_a + a_delta);
    if (b_gap >= static_cast<std::uint64_t>(n - e.a - 1)) {
      binary_error(source_name, "record references node outside [0, N)");
    }
    e.b = static_cast<NodeId>(e.a + 1 + static_cast<std::int64_t>(b_gap));
    if (e.duration < 0.0) {
      binary_error(source_name, "record carries a negative duration");
    }
    if (!events.empty() && ContactEventOrder{}(e, events.back())) {
      binary_error(source_name, "records are not sorted by start time");
    }

    prev_start_bits = start_bits;
    prev_duration_bits = duration_bits;
    prev_a = e.a;
    events.push_back(e);
    DTN_COUNT(kTraceContactsDecoded);
  }
  if (next != end) {
    binary_error(source_name, "trailing bytes after the last record");
  }
  return events;
}

}  // namespace

ContactTrace read_trace_binary(std::string_view bytes,
                               const std::string& source_name,
                               NodeId min_node_count) {
  const BinaryTraceMeta meta = read_binary_header(bytes, source_name);
  std::vector<ContactEvent> events = decode_records(
      bytes.substr(kHeaderFixedSize + meta.name.size()), source_name, meta);
  const NodeId node_count = std::max(min_node_count, meta.node_count);
  try {
    return ContactTrace(node_count, std::move(events), meta.name);
  } catch (const std::invalid_argument& error) {
    binary_error(source_name, error.what());
  }
}

}  // namespace dtn::traceio
