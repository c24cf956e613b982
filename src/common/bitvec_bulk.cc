#include "common/bitvec_bulk.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitvec.hh"
#include "common/cpuid.hh"
#include "common/logging.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PLUTO_X86_SIMD 1
#include <immintrin.h>
#endif

namespace pluto::bulk
{

namespace
{

constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

u64
loadWord(const u8 *p)
{
    u64 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
storeWord(u8 *p, u64 v)
{
    std::memcpy(p, &v, sizeof(v));
}

#ifdef PLUTO_X86_SIMD

/*
 * SIMD kernels. Each processes a whole-block prefix of the input and
 * returns how much it handled; the scalar code resumes from there, so
 * tails and odd counts always go through the oracle path. Block sizes
 * are chosen so the returned count lands on a packed-byte boundary.
 *
 * All kernels are compiled with per-function target attributes (the
 * translation unit itself stays baseline) and are only ever invoked
 * when simd::tier() says the instruction set is present.
 */

/**
 * Nibble-table gather, 16 packed bytes per step: for widths 1/2/4
 * with a full-domain LUT, byteMap[b] == nib[b & 15] | nib[b >> 4]
 * << 4, so a byte translation is two `pshufb` lookups. nib entries
 * fit in 4 bits, so the 16-lane left shift cannot carry into the
 * neighbouring byte.
 */
__attribute__((target("ssse3"))) std::size_t
nibGatherSsse3(const u8 *in, u8 *out, std::size_t n_bytes,
               const u8 *nib)
{
    const __m128i tbl =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(nib));
    const __m128i lo_mask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= n_bytes; i += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in + i));
        const __m128i lo = _mm_and_si128(v, lo_mask);
        const __m128i hi =
            _mm_and_si128(_mm_srli_epi16(v, 4), lo_mask);
        const __m128i r = _mm_or_si128(
            _mm_shuffle_epi8(tbl, lo),
            _mm_slli_epi16(_mm_shuffle_epi8(tbl, hi), 4));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i), r);
    }
    return i;
}

/** AVX2 variant of nibGatherSsse3: 32 packed bytes per step. */
__attribute__((target("avx2"))) std::size_t
nibGatherAvx2(const u8 *in, u8 *out, std::size_t n_bytes,
              const u8 *nib)
{
    const __m256i tbl = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(nib)));
    const __m256i lo_mask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n_bytes; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(in + i));
        const __m256i lo = _mm256_and_si256(v, lo_mask);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi16(v, 4), lo_mask);
        const __m256i r = _mm256_or_si256(
            _mm256_shuffle_epi8(tbl, lo),
            _mm256_slli_epi16(_mm256_shuffle_epi8(tbl, hi), 4));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), r);
    }
    return i;
}

/**
 * Narrow 4 masked u64 lanes to the low 4 bytes of an xmm: byte j of
 * each lane is selected per-lane with `vpshufb` (lane 0 keeps bytes
 * 0/8 at positions 0-1, lane 1 places them at 2-3), then the two
 * 128-bit halves are ORed together.
 */
__attribute__((target("avx2"))) __m128i
narrow4To32(__m256i a)
{
    const __m256i idx = _mm256_setr_epi8(
        0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        -1, -1, 0, 8, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i s = _mm256_shuffle_epi8(a, idx);
    return _mm_or_si128(_mm256_castsi256_si128(s),
                        _mm256_extracti128_si256(s, 1));
}

/** Narrow 16 u64 values (masked to the low byte) into one xmm. */
__attribute__((target("avx2"))) __m128i
narrow16To128(const u64 *v, __m256i mask)
{
    const __m128i b0 = narrow4To32(_mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(v)),
        mask));
    const __m128i b1 = narrow4To32(_mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(v + 4)),
        mask));
    const __m128i b2 = narrow4To32(_mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(v + 8)),
        mask));
    const __m128i b3 = narrow4To32(_mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(v + 12)),
        mask));
    const __m128i d01 = _mm_unpacklo_epi32(b0, b1);
    const __m128i d23 = _mm_unpacklo_epi32(b2, b3);
    return _mm_unpacklo_epi64(d01, d23);
}

/**
 * Pack 16 values per step at widths 1/2/4/8: narrow to 16 bytes,
 * then log2(8/width) field-merge rounds fold neighbouring bytes'
 * fields together before a final `pshufb` compaction. Emits exactly
 * 2*width bytes per step.
 */
__attribute__((target("avx2"))) std::size_t
packAvx2(const u64 *values, std::size_t n, u32 width, u8 *dst)
{
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<long long>((1ull << width) - 1));
    const std::size_t out_step = 2 * width;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16, dst += out_step) {
        __m128i b = narrow16To128(values + i, mask);
        switch (width) {
          case 8:
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst), b);
            break;
          case 4: {
            b = _mm_or_si128(b, _mm_srli_epi16(b, 4));
            b = _mm_and_si128(b, _mm_set1_epi16(0x00ff));
            const __m128i pick = _mm_setr_epi8(
                0, 2, 4, 6, 8, 10, 12, 14,
                -1, -1, -1, -1, -1, -1, -1, -1);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst),
                             _mm_shuffle_epi8(b, pick));
            break;
          }
          case 2: {
            b = _mm_or_si128(b, _mm_srli_epi16(b, 6));
            b = _mm_and_si128(b, _mm_set1_epi16(0x00ff));
            b = _mm_or_si128(b, _mm_srli_epi32(b, 12));
            b = _mm_and_si128(b, _mm_set1_epi32(0xff));
            const __m128i pick = _mm_setr_epi8(
                0, 4, 8, 12, -1, -1, -1, -1,
                -1, -1, -1, -1, -1, -1, -1, -1);
            const u32 w = static_cast<u32>(
                _mm_cvtsi128_si32(_mm_shuffle_epi8(b, pick)));
            std::memcpy(dst, &w, 4);
            break;
          }
          case 1: {
            b = _mm_or_si128(b, _mm_srli_epi16(b, 7));
            b = _mm_and_si128(b, _mm_set1_epi16(0x00ff));
            b = _mm_or_si128(b, _mm_srli_epi32(b, 14));
            b = _mm_and_si128(b, _mm_set1_epi32(0xff));
            b = _mm_or_si128(b, _mm_srli_epi64(b, 28));
            dst[0] = static_cast<u8>(
                static_cast<u64>(_mm_cvtsi128_si64(b)));
            dst[1] = static_cast<u8>(
                static_cast<u64>(_mm_extract_epi64(b, 1)));
            break;
          }
        }
    }
    return i;
}

/** Widen 16 byte-sized fields in an xmm to 16 u64s. */
__attribute__((target("avx2"))) void
widen16To64(__m128i f, u64 *out)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out),
                        _mm256_cvtepu8_epi64(f));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 4),
                        _mm256_cvtepu8_epi64(_mm_srli_si128(f, 4)));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 8),
                        _mm256_cvtepu8_epi64(_mm_srli_si128(f, 8)));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 12),
                        _mm256_cvtepu8_epi64(_mm_srli_si128(f, 12)));
}

/**
 * Unpack widths 1-32, 16 values per step (8 for width 16, 4 for
 * width 32): expand the packed fields to one byte each — nibble
 * interleave (w4), masked shifts + byte/word interleaves (w2), or a
 * `pshufb` broadcast + bit test (w1) — then zero-extend to u64.
 * Shift-induced cross-byte pollution is masked off before use.
 */
__attribute__((target("avx2"))) std::size_t
unpackAvx2(const u8 *in, u32 width, std::size_t n, u64 *out)
{
    std::size_t i = 0;
    switch (width) {
      case 8:
        for (; i + 16 <= n; i += 16)
            widen16To64(_mm_loadu_si128(
                            reinterpret_cast<const __m128i *>(in + i)),
                        out + i);
        break;
      case 16:
        for (; i + 8 <= n; i += 8) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 2 * i));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out + i),
                _mm256_cvtepu16_epi64(v));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out + i + 4),
                _mm256_cvtepu16_epi64(_mm_srli_si128(v, 8)));
        }
        break;
      case 32:
        for (; i + 4 <= n; i += 4)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out + i),
                _mm256_cvtepu32_epi64(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(in + 4 * i))));
        break;
      case 4: {
        const __m128i m = _mm_set1_epi8(0x0f);
        for (; i + 16 <= n; i += 16) {
            const __m128i v = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(in + i / 2));
            const __m128i lo = _mm_and_si128(v, m);
            const __m128i hi =
                _mm_and_si128(_mm_srli_epi16(v, 4), m);
            widen16To64(_mm_unpacklo_epi8(lo, hi), out + i);
        }
        break;
      }
      case 2: {
        const __m128i m = _mm_set1_epi8(0x03);
        for (; i + 16 <= n; i += 16) {
            u32 w;
            std::memcpy(&w, in + i / 4, 4);
            const __m128i v =
                _mm_cvtsi32_si128(static_cast<int>(w));
            const __m128i f0 = _mm_and_si128(v, m);
            const __m128i f1 =
                _mm_and_si128(_mm_srli_epi16(v, 2), m);
            const __m128i f2 =
                _mm_and_si128(_mm_srli_epi16(v, 4), m);
            const __m128i f3 =
                _mm_and_si128(_mm_srli_epi16(v, 6), m);
            const __m128i t01 = _mm_unpacklo_epi8(f0, f1);
            const __m128i t23 = _mm_unpacklo_epi8(f2, f3);
            widen16To64(_mm_unpacklo_epi16(t01, t23), out + i);
        }
        break;
      }
      case 1: {
        const __m128i rep = _mm_setr_epi8(
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1);
        const __m128i bits = _mm_setr_epi8(
            1, 2, 4, 8, 16, 32, 64, static_cast<char>(-128),
            1, 2, 4, 8, 16, 32, 64, static_cast<char>(-128));
        const __m128i ones = _mm_set1_epi8(1);
        for (; i + 16 <= n; i += 16) {
            u16 w;
            std::memcpy(&w, in + i / 8, 2);
            __m128i v = _mm_cvtsi32_si128(w);
            v = _mm_shuffle_epi8(v, rep);
            const __m128i f = _mm_and_si128(
                _mm_cmpeq_epi8(_mm_and_si128(v, bits), bits), ones);
            widen16To64(f, out + i);
        }
        break;
      }
    }
    return i;
}

/**
 * Match+latch for widths 1/2/4 via the same nibble trick as the
 * gather: mnib maps a nibble to the per-field latch mask (each field
 * mask is at most 0x0f wide, so the shift is carry-safe), then
 * ff = (ff & ~mask) | (lut & mask) blends 32 bytes per step.
 */
__attribute__((target("avx2"))) std::size_t
matchSelectNibAvx2(const u8 *src, const u8 *lut, u8 *ff,
                   std::size_t n, const u8 *mnib)
{
    const __m256i tbl = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(mnib)));
    const __m256i lo_mask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i lo = _mm256_and_si256(v, lo_mask);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi16(v, 4), lo_mask);
        const __m256i mb = _mm256_or_si256(
            _mm256_shuffle_epi8(tbl, lo),
            _mm256_slli_epi16(_mm256_shuffle_epi8(tbl, hi), 4));
        const __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ff + i));
        const __m256i l = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lut + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(ff + i),
            _mm256_or_si256(_mm256_andnot_si256(mb, f),
                            _mm256_and_si256(mb, l)));
    }
    return i;
}

/** Match+latch for width 8: whole-byte compare against row_index. */
__attribute__((target("avx2"))) std::size_t
matchSelect8Avx2(const u8 *src, const u8 *lut, u8 *ff,
                 std::size_t n, u8 row_index)
{
    const __m256i key =
        _mm256_set1_epi8(static_cast<char>(row_index));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        const __m256i mb = _mm256_cmpeq_epi8(v, key);
        const __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ff + i));
        const __m256i l = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lut + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(ff + i),
            _mm256_or_si256(_mm256_andnot_si256(mb, f),
                            _mm256_and_si256(mb, l)));
    }
    return i;
}

#endif // PLUTO_X86_SIMD

} // namespace

void
unpackBulk(std::span<const u8> data, u32 width, std::span<u64> out)
{
    if (!isSupportedElementWidth(width))
        panic("unpackBulk: unsupported element width %u", width);
    const u64 n = out.size();
    PLUTO_ASSERT(n <= elementsPerBytes(data.size(), width));
    const u8 *in = data.data();

    u64 done = 0;
#ifdef PLUTO_X86_SIMD
    if (simd::tier() >= simd::Tier::Avx2)
        done = unpackAvx2(in, width, n, out.data());
#endif

    switch (width) {
      case 8:
        for (u64 i = done; i < n; ++i)
            out[i] = in[i];
        return;
      case 16:
        for (u64 i = done; i < n; ++i)
            out[i] = static_cast<u64>(in[2 * i]) |
                     static_cast<u64>(in[2 * i + 1]) << 8;
        return;
      case 32:
        for (u64 i = done; i < n; ++i)
            out[i] = static_cast<u64>(in[4 * i]) |
                     static_cast<u64>(in[4 * i + 1]) << 8 |
                     static_cast<u64>(in[4 * i + 2]) << 16 |
                     static_cast<u64>(in[4 * i + 3]) << 24;
        return;
      default:
        break;
    }

    // Sub-byte widths: expand one packed byte (8/width elements) per
    // iteration instead of per-element bit arithmetic. `done` is a
    // multiple of 16, so the resume point is byte-aligned.
    const u32 per = 8 / width;
    const u8 mask = static_cast<u8>((1u << width) - 1);
    const u64 full = n / per;
    u64 o = done;
    for (u64 i = done / per; i < full; ++i) {
        const u8 b = in[i];
        for (u32 f = 0; f < per; ++f)
            out[o++] = (b >> (f * width)) & mask;
    }
    if (o < n) {
        const u8 b = in[full];
        for (u32 f = 0; o < n; ++f)
            out[o++] = (b >> (f * width)) & mask;
    }
}

void
packBulk(std::span<const u64> values, u32 width, std::span<u8> out)
{
    if (!isSupportedElementWidth(width))
        panic("packBulk: unsupported element width %u", width);
    const u64 n = values.size();
    PLUTO_ASSERT((n * width + 7) / 8 <= out.size());
    u8 *dst = out.data();

    u64 done = 0;
#ifdef PLUTO_X86_SIMD
    if (width <= 8 && simd::tier() >= simd::Tier::Avx2)
        done = packAvx2(values.data(), n, width, dst);
#endif

    switch (width) {
      case 8:
        for (u64 i = done; i < n; ++i)
            dst[i] = static_cast<u8>(values[i]);
        return;
      case 16:
        for (u64 i = 0; i < n; ++i) {
            dst[2 * i] = static_cast<u8>(values[i]);
            dst[2 * i + 1] = static_cast<u8>(values[i] >> 8);
        }
        return;
      case 32:
        for (u64 i = 0; i < n; ++i) {
            dst[4 * i] = static_cast<u8>(values[i]);
            dst[4 * i + 1] = static_cast<u8>(values[i] >> 8);
            dst[4 * i + 2] = static_cast<u8>(values[i] >> 16);
            dst[4 * i + 3] = static_cast<u8>(values[i] >> 24);
        }
        return;
      default:
        break;
    }

    // `done` is a multiple of 16, so the scalar resume point below is
    // byte-aligned for every sub-byte width.
    const u32 per = 8 / width;
    const u8 mask = static_cast<u8>((1u << width) - 1);
    const u64 full = n / per;
    u64 i = done;
    for (u64 b = done / per; b < full; ++b) {
        u8 acc = 0;
        for (u32 f = 0; f < per; ++f, ++i)
            acc |= static_cast<u8>((values[i] & mask) << (f * width));
        dst[b] = acc;
    }
    if (i < n) {
        u8 acc = 0;
        for (u32 f = 0; i < n; ++f, ++i)
            acc |= static_cast<u8>((values[i] & mask) << (f * width));
        dst[full] = acc;
    }
}

LutGather::LutGather(std::span<const u64> values, u32 width,
                     std::string name)
    : width_(width), size_(values.size()), name_(std::move(name))
{
    if (!isSupportedElementWidth(width))
        panic("LutGather: unsupported element width %u", width);
    switch (width_) {
      case 16:
        table16_.resize(size_);
        for (u64 i = 0; i < size_; ++i)
            table16_[i] = static_cast<u16>(values[i]);
        return;
      case 32:
        table32_.resize(size_);
        for (u64 i = 0; i < size_; ++i)
            table32_[i] = static_cast<u32>(values[i]);
        return;
      case 8:
        limit8_ = static_cast<u32>(std::min<u64>(size_, 256));
        byteMap_.resize(256, 0);
        for (u32 b = 0; b < limit8_; ++b)
            byteMap_[b] = static_cast<u8>(values[b]);
        return;
      default:
        break;
    }

    // Sub-byte widths: one table lookup translates a whole packed
    // byte. A byte is valid only if every element it packs indexes
    // inside the LUT; a validity table is kept only for partial LUTs.
    const u32 per = 8 / width_;
    const u8 mask = static_cast<u8>((1u << width_) - 1);
    const bool partial = size_ < (1ull << width_);
    byteMap_.resize(256, 0);
    if (partial)
        byteOk_.resize(256, 1);
    else {
        // Full-domain sub-byte LUT: also build the 16-entry nibble
        // translation the SIMD gather shuffles through. Entries stay
        // within 4 bits, which the gather's shift step relies on.
        const u32 per_nib = 4 / width_;
        for (u32 nb = 0; nb < 16; ++nb) {
            u8 acc = 0;
            for (u32 f = 0; f < per_nib; ++f) {
                const u64 idx = (nb >> (f * width_)) & mask;
                acc |= static_cast<u8>((values[idx] & mask)
                                       << (f * width_));
            }
            nib_[nb] = acc;
        }
        hasNib_ = true;
    }
    for (u32 b = 0; b < 256; ++b) {
        u8 acc = 0;
        for (u32 f = 0; f < per; ++f) {
            const u64 idx = (b >> (f * width_)) & mask;
            if (idx >= size_) {
                // Invalid fields map to 0; the full-byte path rejects
                // the byte via byteOk_, while the tail path checks
                // only the fields it owns and may still use the valid
                // leading ones.
                byteOk_[b] = 0;
                continue;
            }
            acc |= static_cast<u8>((values[idx] & mask) <<
                                   (f * width_));
        }
        byteMap_[b] = acc;
    }
}

void
LutGather::failAt(u64 slot, u64 idx) const
{
    panic("LUT '%s': source slot %llu holds index %llu >= %llu",
          name_.c_str(), static_cast<unsigned long long>(slot),
          static_cast<unsigned long long>(idx),
          static_cast<unsigned long long>(size_));
}

void
LutGather::failInByte(std::span<const u8> src, u64 byte_idx) const
{
    const u32 per = 8 / width_;
    const u8 mask = static_cast<u8>((1u << width_) - 1);
    const u8 b = src[byte_idx];
    for (u32 f = 0; f < per; ++f) {
        const u64 idx = (b >> (f * width_)) & mask;
        if (idx >= size_)
            failAt(byte_idx * per + f, idx);
    }
    panic("LutGather: validity table flagged a valid byte");
}

void
LutGather::apply(std::span<const u8> src, std::span<u8> dst,
                 u64 count) const
{
    const u8 *in = src.data();
    u8 *out = dst.data();
    PLUTO_ASSERT(count <= elementsPerBytes(src.size(), width_));
    PLUTO_ASSERT(count <= elementsPerBytes(dst.size(), width_));

    switch (width_) {
      case 8:
        if (limit8_ == 256) {
            for (u64 i = 0; i < count; ++i)
                out[i] = byteMap_[in[i]];
        } else {
            for (u64 i = 0; i < count; ++i) {
                const u8 b = in[i];
                if (b >= limit8_)
                    failAt(i, b);
                out[i] = byteMap_[b];
            }
        }
        return;
      case 16:
        for (u64 i = 0; i < count; ++i) {
            const u32 v = static_cast<u32>(in[2 * i]) |
                          static_cast<u32>(in[2 * i + 1]) << 8;
            if (v >= size_)
                failAt(i, v);
            const u16 r = table16_[v];
            out[2 * i] = static_cast<u8>(r);
            out[2 * i + 1] = static_cast<u8>(r >> 8);
        }
        return;
      case 32:
        for (u64 i = 0; i < count; ++i) {
            const u64 v = static_cast<u64>(in[4 * i]) |
                          static_cast<u64>(in[4 * i + 1]) << 8 |
                          static_cast<u64>(in[4 * i + 2]) << 16 |
                          static_cast<u64>(in[4 * i + 3]) << 24;
            if (v >= size_)
                failAt(i, v);
            const u32 r = table32_[v];
            out[4 * i] = static_cast<u8>(r);
            out[4 * i + 1] = static_cast<u8>(r >> 8);
            out[4 * i + 2] = static_cast<u8>(r >> 16);
            out[4 * i + 3] = static_cast<u8>(r >> 24);
        }
        return;
      default:
        break;
    }

    const u32 per = 8 / width_;
    const u64 full = count / per;
    if (byteOk_.empty()) {
        u64 done = 0;
#ifdef PLUTO_X86_SIMD
        if (hasNib_) {
            const simd::Tier t = simd::tier();
            if (t >= simd::Tier::Avx2)
                done = nibGatherAvx2(in, out, full, nib_);
            else if (t >= simd::Tier::Ssse3)
                done = nibGatherSsse3(in, out, full, nib_);
        }
#endif
        for (u64 i = done; i < full; ++i)
            out[i] = byteMap_[in[i]];
    } else {
        for (u64 i = 0; i < full; ++i) {
            const u8 b = in[i];
            if (!byteOk_[b])
                failInByte(src, i);
            out[i] = byteMap_[b];
        }
    }
    // Tail: translate only the leading `count % per` elements of the
    // final byte, preserving dst bits beyond them.
    const u32 tail = static_cast<u32>(count % per);
    if (tail) {
        const u8 mask = static_cast<u8>((1u << width_) - 1);
        const u8 b = in[full];
        for (u32 f = 0; f < tail; ++f) {
            const u64 idx = (b >> (f * width_)) & mask;
            if (idx >= size_)
                failAt(full * per + f, idx);
        }
        const u8 own_mask =
            static_cast<u8>((1u << (tail * width_)) - 1);
        out[full] = static_cast<u8>((out[full] & ~own_mask) |
                                    (byteMap_[b] & own_mask));
    }
}

void
bulkMatchSelect(std::span<const u8> src, std::span<const u8> lut_row,
                std::span<u8> ff, u32 width, u64 row_index)
{
    if (src.size() != lut_row.size() || src.size() != ff.size())
        panic("bulkMatchSelect: span size mismatch");
    const u64 n = src.size();

    if (width == 16 || width == 32) {
        const u32 bytes = width / 8;
        for (u64 i = 0; i + bytes <= n; i += bytes) {
            u64 v = 0;
            for (u32 k = 0; k < bytes; ++k)
                v |= static_cast<u64>(src[i + k]) << (8 * k);
            if (v == row_index)
                for (u32 k = 0; k < bytes; ++k)
                    ff[i + k] = lut_row[i + k];
        }
        return;
    }

    // width <= 8: one 256-entry mask table per activated row, then a
    // single lookup latches every matching element of a packed byte.
    const u32 per = 8 / width;
    const u8 mask = static_cast<u8>((width == 8) ? 0xff
                                                 : (1u << width) - 1);
    u8 m[256];
    for (u32 b = 0; b < 256; ++b) {
        u8 acc = 0;
        for (u32 f = 0; f < per; ++f) {
            if (((b >> (f * width)) & mask) == row_index)
                acc |= static_cast<u8>(mask << (f * width));
        }
        m[b] = acc;
    }

    u64 done = 0;
#ifdef PLUTO_X86_SIMD
    if (simd::tier() >= simd::Tier::Avx2) {
        if (width == 8) {
            if (row_index < 256)
                done = matchSelect8Avx2(src.data(), lut_row.data(),
                                        ff.data(), n,
                                        static_cast<u8>(row_index));
        } else {
            // Sub-byte: the latch-mask table factors into nibbles
            // exactly like the gather LUT (per-field masks fit in a
            // nibble), so reuse the pshufb blend.
            u8 mnib[16];
            const u32 per_nib = 4 / width;
            for (u32 nb = 0; nb < 16; ++nb) {
                u8 acc = 0;
                for (u32 f = 0; f < per_nib; ++f) {
                    if (((nb >> (f * width)) & mask) == row_index)
                        acc |= static_cast<u8>(mask << (f * width));
                }
                mnib[nb] = acc;
            }
            done = matchSelectNibAvx2(src.data(), lut_row.data(),
                                      ff.data(), n, mnib);
        }
    }
#endif
    for (u64 i = done; i < n; ++i) {
        const u8 mb = m[src[i]];
        ff[i] = static_cast<u8>((ff[i] & ~mb) | (lut_row[i] & mb));
    }
}

// ---- Row-wide word ops ----

void
bulkNot(std::span<const u8> src, std::span<u8> dst)
{
    PLUTO_ASSERT(src.size() == dst.size());
    const std::size_t n = src.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst.data() + i, ~loadWord(src.data() + i));
    for (; i < n; ++i)
        dst[i] = static_cast<u8>(~src[i]);
}

void
bulkAnd(std::span<const u8> a, std::span<const u8> b, std::span<u8> dst)
{
    PLUTO_ASSERT(a.size() == b.size() && a.size() == dst.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst.data() + i,
                  loadWord(a.data() + i) & loadWord(b.data() + i));
    for (; i < n; ++i)
        dst[i] = a[i] & b[i];
}

void
bulkOr(std::span<const u8> a, std::span<const u8> b, std::span<u8> dst)
{
    PLUTO_ASSERT(a.size() == b.size() && a.size() == dst.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst.data() + i,
                  loadWord(a.data() + i) | loadWord(b.data() + i));
    for (; i < n; ++i)
        dst[i] = a[i] | b[i];
}

void
bulkXor(std::span<const u8> a, std::span<const u8> b, std::span<u8> dst)
{
    PLUTO_ASSERT(a.size() == b.size() && a.size() == dst.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst.data() + i,
                  loadWord(a.data() + i) ^ loadWord(b.data() + i));
    for (; i < n; ++i)
        dst[i] = a[i] ^ b[i];
}

void
bulkXnor(std::span<const u8> a, std::span<const u8> b, std::span<u8> dst)
{
    PLUTO_ASSERT(a.size() == b.size() && a.size() == dst.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeWord(dst.data() + i,
                  ~(loadWord(a.data() + i) ^ loadWord(b.data() + i)));
    for (; i < n; ++i)
        dst[i] = static_cast<u8>(~(a[i] ^ b[i]));
}

void
bulkMaj(std::span<const u8> a, std::span<const u8> b,
        std::span<const u8> c, std::span<u8> dst)
{
    PLUTO_ASSERT(a.size() == b.size() && a.size() == c.size() &&
                 a.size() == dst.size());
    const std::size_t n = a.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const u64 wa = loadWord(a.data() + i);
        const u64 wb = loadWord(b.data() + i);
        const u64 wc = loadWord(c.data() + i);
        storeWord(dst.data() + i,
                  (wa & wb) | (wa & wc) | (wb & wc));
    }
    for (; i < n; ++i)
        dst[i] = static_cast<u8>((a[i] & b[i]) | (a[i] & c[i]) |
                                 (b[i] & c[i]));
}

namespace
{

/** Scalar reference shifts for odd row sizes / big-endian hosts. */
void
scalarShiftLeft(std::span<u8> row, u32 byte_shift, u32 bit_shift)
{
    const std::size_t n = row.size();
    if (byte_shift > 0) {
        std::memmove(row.data() + byte_shift, row.data(),
                     n - byte_shift);
        std::memset(row.data(), 0, byte_shift);
    }
    if (bit_shift > 0) {
        for (std::size_t i = n; i-- > 0;) {
            const u8 lo = i > 0 ? static_cast<u8>(row[i - 1] >>
                                                  (8 - bit_shift))
                                : 0;
            row[i] = static_cast<u8>((row[i] << bit_shift) | lo);
        }
    }
}

void
scalarShiftRight(std::span<u8> row, u32 byte_shift, u32 bit_shift)
{
    const std::size_t n = row.size();
    if (byte_shift > 0) {
        std::memmove(row.data(), row.data() + byte_shift,
                     n - byte_shift);
        std::memset(row.data() + n - byte_shift, 0, byte_shift);
    }
    if (bit_shift > 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const u8 hi = i + 1 < n ? static_cast<u8>(row[i + 1] <<
                                                      (8 - bit_shift))
                                    : 0;
            row[i] = static_cast<u8>((row[i] >> bit_shift) | hi);
        }
    }
}

} // namespace

void
bulkShiftLeft(std::span<u8> row, u32 bits)
{
    const std::size_t n = row.size();
    const u32 byte_shift = bits / 8;
    const u32 bit_shift = bits % 8;
    if (byte_shift >= n) {
        std::fill(row.begin(), row.end(), 0);
        return;
    }
    if (!kLittleEndian || n % 8 != 0) {
        scalarShiftLeft(row, byte_shift, bit_shift);
        return;
    }
    if (byte_shift > 0) {
        std::memmove(row.data() + byte_shift, row.data(),
                     n - byte_shift);
        std::memset(row.data(), 0, byte_shift);
    }
    if (bit_shift > 0) {
        // Multi-precision left shift, one 64-bit word per step, from
        // the top so lower words are still unshifted when read.
        const std::size_t words = n / 8;
        for (std::size_t w = words; w-- > 0;) {
            const u64 cur = loadWord(row.data() + 8 * w);
            const u64 lo =
                w > 0 ? loadWord(row.data() + 8 * (w - 1)) >>
                            (64 - bit_shift)
                      : 0;
            storeWord(row.data() + 8 * w, (cur << bit_shift) | lo);
        }
    }
}

void
bulkShiftRight(std::span<u8> row, u32 bits)
{
    const std::size_t n = row.size();
    const u32 byte_shift = bits / 8;
    const u32 bit_shift = bits % 8;
    if (byte_shift >= n) {
        std::fill(row.begin(), row.end(), 0);
        return;
    }
    if (!kLittleEndian || n % 8 != 0) {
        scalarShiftRight(row, byte_shift, bit_shift);
        return;
    }
    if (byte_shift > 0) {
        std::memmove(row.data(), row.data() + byte_shift,
                     n - byte_shift);
        std::memset(row.data() + n - byte_shift, 0, byte_shift);
    }
    if (bit_shift > 0) {
        const std::size_t words = n / 8;
        for (std::size_t w = 0; w < words; ++w) {
            const u64 cur = loadWord(row.data() + 8 * w);
            const u64 hi =
                w + 1 < words ? loadWord(row.data() + 8 * (w + 1))
                                    << (64 - bit_shift)
                              : 0;
            storeWord(row.data() + 8 * w, (cur >> bit_shift) | hi);
        }
    }
}

} // namespace pluto::bulk
