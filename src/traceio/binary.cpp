#include "traceio/binary.h"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "common/instrument.h"

namespace dtn::traceio {
namespace {

constexpr std::size_t kHeaderFixedSize = 76;
constexpr std::size_t kIoBufferSize = 64 * 1024;

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

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for checksum: " + path);
  std::array<char, kIoBufferSize> buffer;
  std::uint64_t hash = kFnvOffset;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    hash = fnv1a(buffer.data(), static_cast<std::size_t>(in.gcount()), hash);
  }
  if (in.bad()) throw std::runtime_error("I/O error hashing: " + path);
  return hash;
}

void write_trace_binary(const ContactTrace& trace, std::ostream& out,
                        std::uint64_t source_size,
                        std::uint64_t source_checksum) {
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
  append_u64(header, source_size);
  append_u64(header, source_checksum);
  append_u64(header, fnv1a(payload.data(), payload.size()));
  append_u32(header, static_cast<std::uint32_t>(trace.name().size()));
  header.append(trace.name());

  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw std::runtime_error("failed writing binary trace");
}

void save_trace_binary(const ContactTrace& trace, const std::string& path,
                       std::uint64_t source_size,
                       std::uint64_t source_checksum) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_trace_binary(trace, out, source_size, source_checksum);
}

BinaryTraceMeta read_binary_header(std::istream& in,
                                   const std::string& source_name) {
  std::array<unsigned char, kHeaderFixedSize> raw;
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (static_cast<std::size_t>(in.gcount()) != raw.size()) {
    binary_error(source_name, "truncated header");
  }
  if (!std::equal(kBinaryMagic, kBinaryMagic + sizeof(kBinaryMagic),
                  raw.begin())) {
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
  meta.source_size = read_u64(&raw[48]);
  meta.source_checksum = read_u64(&raw[56]);
  meta.payload_checksum = read_u64(&raw[64]);
  const std::uint32_t name_length = read_u32(&raw[72]);
  if (name_length > 4096) {
    binary_error(source_name, "implausible trace name length");
  }
  meta.name.resize(name_length);
  in.read(meta.name.data(), static_cast<std::streamsize>(name_length));
  if (static_cast<std::uint32_t>(in.gcount()) != name_length) {
    binary_error(source_name, "truncated trace name");
  }
  DTN_COUNT_N(kTraceBytesRead, kHeaderFixedSize + name_length);
  return meta;
}

namespace {

/// Buffered reader over the record payload that follows the header. Every
/// byte it hands out is folded into the payload checksum.
class PayloadReader {
 public:
  PayloadReader(std::istream& in, const std::string& source_name)
      : in_(in), source_name_(source_name), buffer_(kIoBufferSize) {}

  std::uint64_t checksum() const { return checksum_; }

  bool read_byte(std::uint8_t& out) {
    if (pos_ == len_ && !fill()) return false;
    const auto byte = static_cast<std::uint8_t>(buffer_[pos_++]);
    checksum_ ^= byte;
    checksum_ *= 0x100000001b3ull;
    out = byte;
    return true;
  }

  std::uint64_t read_varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte = 0;
      if (!read_byte(byte)) {
        binary_error(source_name_, "truncated record payload");
      }
      value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    binary_error(source_name_, "overlong varint in record payload");
  }

 private:
  bool fill() {
    in_.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    len_ = static_cast<std::size_t>(in_.gcount());
    pos_ = 0;
    DTN_COUNT_N(kTraceBytesRead, len_);
    return len_ > 0;
  }

  std::istream& in_;
  const std::string& source_name_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  std::uint64_t checksum_ = kFnvOffset;
};

/// Decodes the meta.contact_count records that follow the header. Each
/// record must name nodes in [0, N), carry a non-negative duration and not
/// sort before its predecessor; then the payload checksum must match and
/// the payload must end with the last record. Throws on any violation.
std::vector<ContactEvent> decode_records(std::istream& in,
                                         const std::string& source_name,
                                         const BinaryTraceMeta& meta) {
  PayloadReader reader(in, source_name);
  std::vector<ContactEvent> events;
  events.reserve(static_cast<std::size_t>(meta.contact_count));
  std::uint64_t prev_start_bits = 0;
  std::uint64_t prev_duration_bits = 0;
  NodeId prev_a = 0;
  for (std::uint64_t i = 0; i < meta.contact_count; ++i) {
    const std::uint64_t start_bits =
        prev_start_bits ^ bswap64(reader.read_varint());
    const std::uint64_t duration_bits =
        prev_duration_bits ^ bswap64(reader.read_varint());
    const std::int64_t a_delta = zigzag_decode(reader.read_varint());
    const std::uint64_t b_gap = reader.read_varint();

    ContactEvent e;
    e.start = std::bit_cast<Time>(start_bits);
    e.duration = std::bit_cast<Time>(duration_bits);
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
  if (reader.checksum() != meta.payload_checksum) {
    binary_error(source_name, "payload checksum mismatch (corrupt file)");
  }
  std::uint8_t extra = 0;
  if (reader.read_byte(extra)) {
    binary_error(source_name, "trailing bytes after the last record");
  }
  return events;
}

}  // namespace

ContactTrace read_trace_binary(std::istream& in,
                               const std::string& source_name,
                               NodeId min_node_count) {
  const BinaryTraceMeta meta = read_binary_header(in, source_name);
  std::vector<ContactEvent> events = decode_records(in, source_name, meta);
  const NodeId node_count = std::max(min_node_count, meta.node_count);
  try {
    return ContactTrace(node_count, std::move(events), meta.name);
  } catch (const std::invalid_argument& error) {
    binary_error(source_name, error.what());
  }
}

ContactTrace load_trace_binary(const std::string& path,
                               NodeId min_node_count) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace_binary(in, path, min_node_count);
}

}  // namespace dtn::traceio
