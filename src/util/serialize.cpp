#include "util/serialize.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace concilium::util {

namespace {

template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

}  // namespace

void ByteWriter::u8(std::uint8_t v) { buffer_.push_back(v); }
void ByteWriter::u16(std::uint16_t v) { append_le(buffer_, v); }
void ByteWriter::u32(std::uint32_t v) { append_le(buffer_, v); }
void ByteWriter::u64(std::uint64_t v) { append_le(buffer_, v); }
void ByteWriter::i64(std::int64_t v) {
    append_le(buffer_, static_cast<std::uint64_t>(v));
}

void ByteWriter::f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(buffer_, bits);
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::node_id(const NodeId& id) {
    buffer_.insert(buffer_.end(), id.bytes().begin(), id.bytes().end());
}

void ByteReader::need(std::size_t n) const {
    if (offset_ + n > data_.size()) {
        throw std::out_of_range("ByteReader: truncated message");
    }
}

std::uint8_t ByteReader::u8() {
    need(1);
    return data_[offset_++];
}

std::uint16_t ByteReader::u16() {
    need(2);
    std::uint16_t v = 0;
    for (std::size_t i = 0; i < 2; ++i) {
        v = static_cast<std::uint16_t>(v | (data_[offset_ + i] << (8 * i)));
    }
    offset_ += 2;
    return v;
}

std::uint32_t ByteReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += 4;
    return v;
}

std::uint64_t ByteReader::u64() {
    need(8);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
    }
    offset_ += 8;
    return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::uint32_t ByteReader::count(std::size_t min_item_bytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / min_item_bytes) {
        throw std::out_of_range("ByteReader: count exceeds message size");
    }
    return n;
}

std::vector<std::uint8_t> ByteReader::bytes() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
    offset_ += n;
    return out;
}

std::string ByteReader::str() {
    const std::uint32_t n = u32();
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data()) + offset_, n);
    offset_ += n;
    return out;
}

NodeId ByteReader::node_id() {
    need(NodeId::kBytes);
    std::array<std::uint8_t, NodeId::kBytes> raw{};
    std::memcpy(raw.data(), data_.data() + offset_, NodeId::kBytes);
    offset_ += NodeId::kBytes;
    return NodeId(raw);
}

}  // namespace concilium::util
