#include "state/snapshot.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>

#if !defined(_WIN32)
#include <signal.h>
#include <unistd.h>
#endif

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define BLINKRADAR_HAVE_CRC32_PCLMUL 1
#endif

#include "common/contracts.hpp"

namespace blinkradar::state {

namespace {

constexpr std::uint32_t kMagic = make_tag("BRSN");
constexpr std::uint16_t kFormatVersion = 1;
constexpr std::size_t kHeaderLen = 8;        // magic + version + flags
constexpr std::size_t kSectionHeaderLen = 12;  // tag + ver + rsv + len
constexpr std::size_t kCrcLen = 4;

/// Slicing-by-8 CRC-32 tables (IEEE 802.3 reflected polynomial
/// 0xEDB88320), generated once at static-init time. t[0] is the classic
/// bytewise table; t[k][i] is the CRC of byte i followed by k zero
/// bytes, so one step folds 8 input bytes with 8 independent lookups.
struct Crc32Table {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    Crc32Table() {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::size_t i = 0; i < 256; ++i)
                t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
};
const Crc32Table kCrcTable;

std::uint16_t load_u16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t load_u32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64(const std::uint8_t* p) {
    return static_cast<std::uint64_t>(load_u32(p)) |
           static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

/// Slicing-by-8 over `n` bytes, on the raw (not yet inverted) CRC
/// register `c`. Words are assembled little-endian by load_u32, so the
/// loop makes no alignment or host byte-order assumption.
std::uint32_t crc32_update_sliced(std::uint32_t c, const std::uint8_t* p,
                                  std::size_t n) noexcept {
    const auto& t = kCrcTable.t;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load_u32(p) ^ c;
        const std::uint32_t hi = load_u32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

#if defined(BLINKRADAR_HAVE_CRC32_PCLMUL)
#define BR_PCLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

BR_PCLMUL_TARGET inline __m128i load128(const std::uint8_t* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// a * k.lo ^ a * k.hi, folded onto the next block b.
BR_PCLMUL_TARGET inline __m128i fold128(__m128i a, __m128i k,
                                        __m128i b) noexcept {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         b);
}

/// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009), on the raw CRC
/// register. `n` must be at least 64 and a multiple of 16. Four 128-bit
/// lanes fold 64 bytes per step, collapse into one lane, fold the 16-byte
/// remainder blocks, and a Barrett reduction brings 64 bits down to 32.
/// The constants are the paper's, bit-reflected for P = 0x04C11DB7:
/// k1/k2 fold across four lanes (x^(4*128+32), x^(4*128-32) mod P),
/// k3/k4 across one lane (x^(128+32), x^(128-32) mod P), k5 = x^64 mod P,
/// and P' and mu' = x^64 / P are the Barrett pair.
BR_PCLMUL_TARGET std::uint32_t crc32_fold_pclmul(std::uint32_t crc,
                                                 const std::uint8_t* p,
                                                 std::size_t n) noexcept {
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x1 =
        _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    n -= 64;
    for (; n >= 64; p += 64, n -= 64) {
        x1 = fold128(x1, k1k2, load128(p));
        x2 = fold128(x2, k1k2, load128(p + 16));
        x3 = fold128(x3, k1k2, load128(p + 32));
        x4 = fold128(x4, k1k2, load128(p + 48));
    }
    x1 = fold128(x1, k3k4, x2);
    x1 = fold128(x1, k3k4, x3);
    x1 = fold128(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16) x1 = fold128(x1, k3k4, load128(p));

    // 128 -> 64 bits, then 64 -> 32 through k5.
    __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                              _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        _mm_srli_si128(x, 4));
    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef BR_PCLMUL_TARGET

std::uint32_t crc32_pclmul_impl(std::span<const std::uint8_t> data) noexcept {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint32_t c = 0xFFFFFFFFu;
    if (n >= 64) {
        const std::size_t folded = n & ~static_cast<std::size_t>(15);
        c = crc32_fold_pclmul(c, p, folded);
        p += folded;
        n -= folded;
    }
    return crc32_update_sliced(c, p, n) ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data) noexcept {
    return crc32_update_sliced(0xFFFFFFFFu, data.data(), data.size()) ^
           0xFFFFFFFFu;
}

Crc32Fn crc32_pclmul() noexcept {
#if defined(BLINKRADAR_HAVE_CRC32_PCLMUL)
    static const bool supported = __builtin_cpu_supports("pclmul") &&
                                  __builtin_cpu_supports("sse4.1");
    return supported ? &crc32_pclmul_impl : nullptr;
#else
    return nullptr;
#endif
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data) {
    // Picked once per process, like the dsp KernelTable backends; both
    // backends produce the same value for every input.
    static const detail::Crc32Fn backend = [] {
        const detail::Crc32Fn pclmul = detail::crc32_pclmul();
        return pclmul != nullptr ? pclmul : &detail::crc32_slicing8;
    }();
    return backend(data);
}

std::string tag_name(std::uint32_t tag) {
    char chars[4] = {static_cast<char>(tag & 0xFF),
                     static_cast<char>((tag >> 8) & 0xFF),
                     static_cast<char>((tag >> 16) & 0xFF),
                     static_cast<char>((tag >> 24) & 0xFF)};
    bool printable = true;
    for (const char c : chars)
        printable &= std::isprint(static_cast<unsigned char>(c)) != 0;
    if (printable) return std::string(chars, 4);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08X", tag);
    return buf;
}

void seal_section_crcs(std::span<std::uint8_t> container) {
    if (container.size() < kHeaderLen)
        throw SnapshotError("seal: container shorter than its header");
    if (load_u32(container.data()) != kMagic)
        throw SnapshotError("seal: bad container magic");
    std::size_t off = kHeaderLen;
    while (off < container.size()) {
        if (container.size() - off < kSectionHeaderLen + kCrcLen)
            throw SnapshotError("seal: truncated section header");
        const std::uint32_t len = load_u32(container.data() + off + 8);
        if (container.size() - off - kSectionHeaderLen - kCrcLen < len)
            throw SnapshotError("seal: section length overruns container");
        const std::size_t covered = kSectionHeaderLen + len;
        const std::uint32_t crc =
            crc32(std::span<const std::uint8_t>(container.data() + off,
                                                covered));
        std::uint8_t* out = container.data() + off + covered;
        for (int i = 0; i < 4; ++i)
            out[i] = static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
        off += covered + kCrcLen;
    }
}

// ---------------------------------------------------------------- writer

StateWriter::StateWriter() {
    buf_.reserve(4096);
    append_raw_u32(kMagic);
    append_raw_u16(kFormatVersion);
    append_raw_u16(0);  // flags
}

StateWriter::StateWriter(std::vector<std::uint8_t>&& recycle)
    : buf_(std::move(recycle)) {
    buf_.clear();  // keeps capacity: no allocation until past it
    if (buf_.capacity() < 4096) buf_.reserve(4096);
    append_raw_u32(kMagic);
    append_raw_u16(kFormatVersion);
    append_raw_u16(0);  // flags
}

// The scalar appends are hot: a pipeline checkpoint writes a few
// thousand individual integers/doubles besides the bulk spans, and a
// byte-at-a-time push_back loop pays a capacity check per byte. One
// insert per value is a single check plus a fixed-size memcpy. On a
// little-endian host the value's own bytes are already wire order.
void StateWriter::append_raw_u16(std::uint16_t v) {
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(v));
    } else {
        buf_.push_back(static_cast<std::uint8_t>(v & 0xFF));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }
}

void StateWriter::append_raw_u32(std::uint32_t v) {
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(v));
    } else {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
}

void StateWriter::append_raw_u64(std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
}

void StateWriter::begin_section(std::uint32_t tag, std::uint16_t version) {
    BR_EXPECTS(!finished_);
    BR_EXPECTS(!in_section_);
    section_header_ = buf_.size();
    append_raw_u32(tag);
    append_raw_u16(version);
    append_raw_u16(0);  // reserved
    append_raw_u32(0);  // payload_len backpatched by end_section
    in_section_ = true;
}

void StateWriter::end_section() {
    BR_EXPECTS(in_section_);
    const std::size_t payload_len =
        buf_.size() - section_header_ - kSectionHeaderLen;
    BR_EXPECTS(payload_len <= UINT32_MAX);
    const auto len32 = static_cast<std::uint32_t>(payload_len);
    for (int i = 0; i < 4; ++i)
        buf_[section_header_ + 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((len32 >> (8 * i)) & 0xFF);
    const std::uint32_t crc =
        defer_crc_ ? 0u
                   : crc32(std::span<const std::uint8_t>(
                         buf_.data() + section_header_,
                         kSectionHeaderLen + payload_len));
    append_raw_u32(crc);
    in_section_ = false;
}

void StateWriter::write_u8(std::uint8_t v) {
    BR_EXPECTS(in_section_);
    buf_.push_back(v);
}

void StateWriter::write_u16(std::uint16_t v) {
    BR_EXPECTS(in_section_);
    append_raw_u16(v);
}

void StateWriter::write_u32(std::uint32_t v) {
    BR_EXPECTS(in_section_);
    append_raw_u32(v);
}

void StateWriter::write_u64(std::uint64_t v) {
    BR_EXPECTS(in_section_);
    append_raw_u64(v);
}

void StateWriter::write_i64(std::int64_t v) {
    write_u64(static_cast<std::uint64_t>(v));
}

void StateWriter::write_f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    write_u64(bits);
}

void StateWriter::write_bool(bool v) { write_u8(v ? 1 : 0); }

void StateWriter::write_complex(const dsp::Complex& v) {
    write_f64(v.real());
    write_f64(v.imag());
}

void StateWriter::write_f64_span(std::span<const double> v) {
    write_u64(v.size());
    // The wire format is little-endian IEEE-754; on a little-endian host
    // the in-memory representation is already wire order, so the span
    // lands as one bulk append instead of an 8-byte loop per element.
    // Sections of hundreds of kilobytes (the pipeline's frame window)
    // make this the difference between a ~1 ms and a ~50 us checkpoint.
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
    } else {
        for (const double x : v) write_f64(x);
    }
}

void StateWriter::write_complex_span(std::span<const dsp::Complex> v) {
    write_u64(v.size());
    static_assert(sizeof(dsp::Complex) == 2 * sizeof(double));
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        buf_.insert(buf_.end(), p, p + v.size() * sizeof(dsp::Complex));
    } else {
        for (const dsp::Complex& x : v) write_complex(x);
    }
}

void StateWriter::write_complex_planes(std::span<const double> re,
                                       std::span<const double> im) {
    BR_EXPECTS(re.size() == im.size());
    write_u64(re.size());
    // Interleave straight into the grown buffer, in a copy loop the
    // compiler vectorises: same wire bytes as write_complex_span on the
    // equivalent interleaved signal.
    if constexpr (std::endian::native == std::endian::little) {
        const std::size_t at = buf_.size();
        const std::size_t bytes = re.size() * 2 * sizeof(double);
        buf_.reserve(at + bytes);
        buf_.resize(at + bytes);
        std::uint8_t* out = buf_.data() + at;
        for (std::size_t j = 0; j < re.size(); ++j, out += 16) {
            std::memcpy(out, &re[j], sizeof(double));
            std::memcpy(out + sizeof(double), &im[j], sizeof(double));
        }
    } else {
        for (std::size_t j = 0; j < re.size(); ++j) {
            write_f64(re[j]);
            write_f64(im[j]);
        }
    }
}

void StateWriter::write_u8_span(std::span<const std::uint8_t> v) {
    write_u64(v.size());
    BR_EXPECTS(in_section_);
    buf_.insert(buf_.end(), v.begin(), v.end());
}

std::vector<std::uint8_t> StateWriter::finish() {
    BR_EXPECTS(!in_section_);
    BR_EXPECTS(!finished_);
    finished_ = true;
    return std::move(buf_);
}

// ---------------------------------------------------------------- reader

StateReader::StateReader(std::span<const std::uint8_t> bytes)
    : bytes_(bytes) {
    if (bytes_.size() < kHeaderLen)
        throw SnapshotError("snapshot: truncated header (" +
                            std::to_string(bytes_.size()) + " of " +
                            std::to_string(kHeaderLen) + " bytes)");
    if (load_u32(bytes_.data()) != kMagic)
        throw SnapshotError("snapshot: bad magic (not a BRSN snapshot)");
    const std::uint16_t version = load_u16(bytes_.data() + 4);
    if (version != kFormatVersion)
        throw SnapshotError(
            "snapshot: unsupported container version " +
            std::to_string(version) + " (reader supports " +
            std::to_string(kFormatVersion) + ")");

    // Walk and validate every section frame up front.
    std::size_t off = kHeaderLen;
    while (off < bytes_.size()) {
        if (bytes_.size() - off < kSectionHeaderLen + kCrcLen)
            throw SnapshotError(
                "snapshot: truncated section header at offset " +
                std::to_string(off));
        const std::uint32_t tag = load_u32(bytes_.data() + off);
        const std::uint16_t sec_version = load_u16(bytes_.data() + off + 4);
        const std::uint32_t payload_len = load_u32(bytes_.data() + off + 8);
        const std::size_t frame_end =
            off + kSectionHeaderLen + static_cast<std::size_t>(payload_len) +
            kCrcLen;
        if (payload_len > bytes_.size() - off - kSectionHeaderLen - kCrcLen)
            throw SnapshotError("snapshot: section " + tag_name(tag) +
                                " at offset " + std::to_string(off) +
                                " claims " + std::to_string(payload_len) +
                                " payload bytes but only " +
                                std::to_string(bytes_.size() - off -
                                               kSectionHeaderLen - kCrcLen) +
                                " remain (truncated or corrupt length)");
        const std::uint32_t stored_crc =
            load_u32(bytes_.data() + frame_end - kCrcLen);
        const std::uint32_t actual_crc = crc32(bytes_.subspan(
            off, kSectionHeaderLen + static_cast<std::size_t>(payload_len)));
        if (stored_crc != actual_crc)
            throw SnapshotError("snapshot: CRC mismatch in section " +
                                tag_name(tag) + " at offset " +
                                std::to_string(off) + " (stored " +
                                std::to_string(stored_crc) + ", computed " +
                                std::to_string(actual_crc) + ")");
        for (const SectionEntry& s : sections_)
            if (s.tag == tag)
                throw SnapshotError("snapshot: duplicate section " +
                                    tag_name(tag));
        sections_.push_back(SectionEntry{
            tag, sec_version, off + kSectionHeaderLen,
            static_cast<std::size_t>(payload_len)});
        off = frame_end;
    }
}

const StateReader::SectionEntry* StateReader::find(
    std::uint32_t tag) const noexcept {
    for (const SectionEntry& s : sections_)
        if (s.tag == tag) return &s;
    return nullptr;
}

bool StateReader::has_section(std::uint32_t tag) const noexcept {
    return find(tag) != nullptr;
}

std::uint16_t StateReader::open_section(std::uint32_t tag) {
    const SectionEntry* s = find(tag);
    if (s == nullptr)
        throw SnapshotError("snapshot: required section " + tag_name(tag) +
                            " is missing");
    open_ = s;
    cursor_ = s->payload_offset;
    return s->version;
}

void StateReader::close_section() {
    BR_EXPECTS(open_ != nullptr);
    open_ = nullptr;
}

std::size_t StateReader::section_remaining() const {
    BR_EXPECTS(open_ != nullptr);
    return open_->payload_offset + open_->payload_len - cursor_;
}

void StateReader::need(std::size_t n) const {
    if (open_ == nullptr)
        throw SnapshotError("snapshot: read outside any section");
    if (section_remaining() < n)
        throw SnapshotError(
            "snapshot: section " + tag_name(open_->tag) +
            " payload exhausted (need " + std::to_string(n) + " bytes, " +
            std::to_string(section_remaining()) + " remain)");
}

std::uint8_t StateReader::read_u8() {
    need(1);
    return bytes_[cursor_++];
}

std::uint16_t StateReader::read_u16() {
    need(2);
    const std::uint16_t v = load_u16(bytes_.data() + cursor_);
    cursor_ += 2;
    return v;
}

std::uint32_t StateReader::read_u32() {
    need(4);
    const std::uint32_t v = load_u32(bytes_.data() + cursor_);
    cursor_ += 4;
    return v;
}

std::uint64_t StateReader::read_u64() {
    need(8);
    const std::uint64_t v = load_u64(bytes_.data() + cursor_);
    cursor_ += 8;
    return v;
}

std::int64_t StateReader::read_i64() {
    return static_cast<std::int64_t>(read_u64());
}

double StateReader::read_f64() {
    const std::uint64_t bits = read_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool StateReader::read_bool() {
    const std::uint8_t v = read_u8();
    if (v > 1)
        throw SnapshotError("snapshot: section " + tag_name(open_->tag) +
                            " holds invalid bool value " +
                            std::to_string(v));
    return v == 1;
}

std::size_t StateReader::read_size() {
    const std::uint64_t v = read_u64();
    if (v > SIZE_MAX)
        throw SnapshotError("snapshot: size value " + std::to_string(v) +
                            " overflows the host size_t");
    return static_cast<std::size_t>(v);
}

dsp::Complex StateReader::read_complex() {
    const double re = read_f64();
    const double im = read_f64();
    return dsp::Complex(re, im);
}

void StateReader::read_f64_into(std::vector<double>& out) {
    const std::size_t n = read_size();
    need(n * 8 < n ? SIZE_MAX : n * 8);  // overflow-safe bound check
    if constexpr (std::endian::native == std::endian::little) {
        out.resize(n);
        if (n != 0)  // empty vector: data() may be null, memcpy UB
            std::memcpy(out.data(), bytes_.data() + cursor_,
                        n * sizeof(double));
        cursor_ += n * sizeof(double);
        return;
    }
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(read_f64());
}

void StateReader::read_complex_into(dsp::ComplexSignal& out) {
    const std::size_t n = read_size();
    need(n * 16 < n ? SIZE_MAX : n * 16);
    if constexpr (std::endian::native == std::endian::little) {
        out.resize(n);
        if (n != 0)  // empty vector: data() may be null, memcpy UB
            std::memcpy(out.data(), bytes_.data() + cursor_,
                        n * sizeof(dsp::Complex));
        cursor_ += n * sizeof(dsp::Complex);
        return;
    }
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(read_complex());
}

void StateReader::read_complex_planes_into(std::vector<double>& re,
                                           std::vector<double>& im) {
    const std::size_t n = read_size();
    need(n * 16 < n ? SIZE_MAX : n * 16);
    re.resize(n);
    im.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        double r = 0.0;
        double i = 0.0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&r, bytes_.data() + cursor_ + j * 16, sizeof(double));
            std::memcpy(&i, bytes_.data() + cursor_ + j * 16 + 8,
                        sizeof(double));
        } else {
            std::uint64_t rb = 0;
            std::uint64_t ib = 0;
            for (std::size_t k = 0; k < 8; ++k) {
                rb |= static_cast<std::uint64_t>(
                          bytes_[cursor_ + j * 16 + k])
                      << (8 * k);
                ib |= static_cast<std::uint64_t>(
                          bytes_[cursor_ + j * 16 + 8 + k])
                      << (8 * k);
            }
            std::memcpy(&r, &rb, sizeof(double));
            std::memcpy(&i, &ib, sizeof(double));
        }
        re[j] = r;
        im[j] = i;
    }
    cursor_ += n * 16;
}

void StateReader::read_u8_into(std::vector<std::uint8_t>& out) {
    const std::size_t n = read_size();
    need(n);
    out.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_),
               bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
    cursor_ += n;
}

// --------------------------------------------------------------- file IO

namespace {

std::uint64_t current_pid() noexcept {
#if defined(_WIN32)
    return 0;
#else
    return static_cast<std::uint64_t>(::getpid());
#endif
}

/// True when `pid` names a live process we could be sharing the
/// directory with. Conservative: any error other than "no such
/// process" (e.g. EPERM on a foreign uid's process) counts as alive.
bool pid_alive(std::uint64_t pid) noexcept {
#if defined(_WIN32)
    return true;  // no cheap liveness probe: never reclaim
#else
    if (pid == 0 || pid > static_cast<std::uint64_t>(
                              std::numeric_limits<pid_t>::max()))
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
    return errno != ESRCH;
#endif
}

/// Parse the writer pid out of a temp-file name of the form
/// `<target>.tmp.<pid>.<counter>`; nullopt when the name is not ours.
std::optional<std::uint64_t> temp_file_pid(std::string_view name) {
    const std::size_t mark = name.rfind(".tmp.");
    if (mark == std::string_view::npos) return std::nullopt;
    const std::string_view tail = name.substr(mark + 5);  // "<pid>.<ctr>"
    const std::size_t dot = tail.find('.');
    if (dot == std::string_view::npos || dot == 0 ||
        dot + 1 >= tail.size())
        return std::nullopt;
    std::uint64_t pid = 0;
    const std::string_view pid_text = tail.substr(0, dot);
    auto [p, ec] = std::from_chars(pid_text.data(),
                                   pid_text.data() + pid_text.size(), pid);
    if (ec != std::errc() || p != pid_text.data() + pid_text.size())
        return std::nullopt;
    const std::string_view ctr_text = tail.substr(dot + 1);
    std::uint64_t ctr = 0;
    auto [c, ec2] = std::from_chars(ctr_text.data(),
                                    ctr_text.data() + ctr_text.size(), ctr);
    if (ec2 != std::errc() || c != ctr_text.data() + ctr_text.size())
        return std::nullopt;
    return pid;
}

}  // namespace

void write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> bytes) {
    // The temp name is unique per writer — pid plus a process-wide
    // monotonic counter — never a fixed `path + ".tmp"`: two concurrent
    // writers targeting the same path (two fleet sessions, or a
    // Supervisor slot write racing a flight-recorder dump) would
    // otherwise interleave inside one temp file and publish a corrupt
    // container via the rename.
    static std::atomic<std::uint64_t> g_temp_counter{0};
    const std::uint64_t serial =
        g_temp_counter.fetch_add(1, std::memory_order_relaxed);
    const std::string tmp = path + ".tmp." + std::to_string(current_pid()) +
                            "." + std::to_string(serial);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os.good())
            throw SnapshotError("snapshot: cannot open " + tmp +
                                " for writing");
        os.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os.good()) {
            os.close();
            std::remove(tmp.c_str());
            throw SnapshotError("snapshot: short write to " + tmp);
        }
    }
    // Atomic publish: a crash before the rename leaves the previous
    // snapshot at `path` untouched; after it, the new one is complete.
    // Concurrent writers each rename their own temp — last one wins
    // with a complete file either way.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("snapshot: rename " + tmp + " -> " + path +
                            " failed");
    }
}

std::size_t cleanup_orphan_temps(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return 0;
    std::size_t removed = 0;
    const std::uint64_t self = current_pid();
    for (const fs::directory_entry& entry : it) {
        if (!entry.is_regular_file(ec)) continue;
        const std::string name = entry.path().filename().string();
        const std::optional<std::uint64_t> pid = temp_file_pid(name);
        // Only reclaim another (dead) writer's leavings: our own pid's
        // temps may be in flight on a sibling thread right now, and a
        // live foreign pid is presumed mid-write.
        if (!pid || *pid == self || pid_alive(*pid)) continue;
        if (fs::remove(entry.path(), ec) && !ec) ++removed;
    }
    return removed;
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is.good())
        throw SnapshotError("snapshot: cannot open " + path +
                            " for reading");
    const std::streamsize size = is.tellg();
    is.seekg(0, std::ios::beg);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0 &&
        !is.read(reinterpret_cast<char*>(bytes.data()), size))
        throw SnapshotError("snapshot: short read from " + path);
    return bytes;
}

}  // namespace blinkradar::state
