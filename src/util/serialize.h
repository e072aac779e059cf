// Byte-level serialization for protocol messages.
//
// Concilium exchanges signed artifacts -- routing tables, tomographic
// snapshots, verdicts, accusations -- whose byte encodings matter twice:
// signatures are computed over the encoded form, and Section 4.4 accounts
// for the bandwidth they consume.  ByteWriter/ByteReader provide a simple
// little-endian encoding with explicit sizes.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"

namespace concilium::util {

class ByteWriter {
  public:
    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    /// Length-prefixed (u32) byte string.
    void bytes(std::span<const std::uint8_t> data);
    /// Length-prefixed (u32) UTF-8 string.
    void str(std::string_view s);
    void node_id(const NodeId& id);

    [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
        return buffer_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
    [[nodiscard]] std::string as_string() const {
        return std::string(buffer_.begin(), buffer_.end());
    }

  private:
    std::vector<std::uint8_t> buffer_;
};

/// Throws std::out_of_range when reads run past the end of the buffer --
/// malformed network input must never be silently truncated.
class ByteReader {
  public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    std::vector<std::uint8_t> bytes();
    std::string str();
    NodeId node_id();
    /// A u32 element count, checked before anyone sizes a container by it:
    /// throws std::out_of_range unless that many elements of at least
    /// `min_item_bytes` (>= 1) each fit in the bytes left.
    std::uint32_t count(std::size_t min_item_bytes = 1);

    [[nodiscard]] bool exhausted() const noexcept {
        return offset_ == data_.size();
    }
    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - offset_;
    }

  private:
    void need(std::size_t n) const;

    std::span<const std::uint8_t> data_;
    std::size_t offset_ = 0;
};

}  // namespace concilium::util
