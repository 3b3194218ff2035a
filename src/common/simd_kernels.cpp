// SIMD kernels for the datapath fast paths, isolated in one translation unit
// compiled with -mpclmul -msse4.1 -mavx2 (see common/CMakeLists.txt). Nothing
// here runs unless the runtime dispatch in hash.cpp confirmed CPUID support,
// so the per-file flags never leak illegal instructions onto older hosts.
// Every kernel is bit-identical to its scalar twin in hash.cpp; the parity
// test suite and the startup self-check both enforce that.
#include "common/hash.hpp"

#if defined(DART_SIMD_KERNELS) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>
#include <wmmintrin.h>

namespace dart::detail {

namespace {

// Fold constants for the reflected CRC-32 polynomial 0xEDB88320 (the same
// pair zlib's and the Linux kernel's PCLMUL implementations use):
//   64-byte fold:  lo64 × k1 = x^(4·128+32) mod P, hi64 × k2 = x^(4·128-32)
//   16-byte fold:  lo64 × k3 = x^(128+32)  mod P, hi64 × k4 = x^(128-32)
// Verified empirically against the slicing-by-8 kernel over all lengths and
// alignments by tests/common/test_crc_parity.cpp.
constexpr std::uint64_t kFold64Lo = 0x0000000154442bd4ull;  // k1
constexpr std::uint64_t kFold64Hi = 0x00000001c6e41596ull;  // k2
constexpr std::uint64_t kFold16Lo = 0x00000001751997d0ull;  // k3
constexpr std::uint64_t kFold16Hi = 0x00000000ccaa009eull;  // k4
// Final-reduction constants (same source): k5 folds the upper 64 bits across
// the 32-bit boundary, and (P', μ) drive the Barrett reduction of the last
// 64 bits down to the 32-bit running state.
constexpr std::uint64_t kFoldTail = 0x0000000163cd6124ull;   // k5
constexpr std::uint64_t kPolyFull = 0x00000001db710641ull;   // P'
constexpr std::uint64_t kBarrettMu = 0x00000001f7011641ull;  // μ

[[nodiscard]] inline __m128i fold128(__m128i x, __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// Reduces a 16-byte fold accumulator straight to the 32-bit running state:
// fold 128→64 (k4, then k5 across the 32-bit boundary), then one Barrett
// step. Replaces feeding the accumulator through the byte table — the
// difference is ~16 table steps on every call, which dominates total cost
// for the short report-sized inputs the datapath actually hashes.
[[nodiscard]] inline std::uint32_t reduce128(__m128i x, __m128i k16) noexcept {
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kFoldTail));
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                                      static_cast<long long>(kPolyFull));
  __m128i t = _mm_clmulepi64_si128(x, k16, 0x10);  // lo64 × k4
  x = _mm_srli_si128(x, 8);
  x = _mm_xor_si128(x, t);
  t = _mm_srli_si128(x, 4);
  x = _mm_and_si128(x, mask32);
  x = _mm_clmulepi64_si128(x, k5, 0x00);
  x = _mm_xor_si128(x, t);
  t = _mm_and_si128(x, mask32);
  t = _mm_clmulepi64_si128(t, poly, 0x10);  // × μ
  t = _mm_and_si128(t, mask32);
  t = _mm_clmulepi64_si128(t, poly, 0x00);  // × P'
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
}

}  // namespace

bool crc32_clmul_compiled() noexcept { return true; }

bool crc32_clmul_usable() noexcept {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

bool xxhash64_avx2_usable() noexcept {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

std::uint32_t crc32_update_clmul(std::uint32_t state, const std::byte* p,
                                 std::size_t n) noexcept {
  if (n < 16) return crc32_update_scalar(state, p, n);

  const __m128i k64 =
      _mm_set_epi64x(static_cast<long long>(kFold64Hi),
                     static_cast<long long>(kFold64Lo));
  const __m128i k16 =
      _mm_set_epi64x(static_cast<long long>(kFold16Hi),
                     static_cast<long long>(kFold16Lo));

  // The running state folds into the low 32 bits of the first block; from
  // here on the computation is pure carryless polynomial arithmetic.
  __m128i x;
  if (n >= 64) {
    __m128i x0 = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
        _mm_cvtsi32_si128(static_cast<int>(state)));
    __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
    p += 64;
    n -= 64;
    while (n >= 64) {
      x0 = _mm_xor_si128(fold128(x0, k64),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
      x1 = _mm_xor_si128(
          fold128(x1, k64),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
      x2 = _mm_xor_si128(
          fold128(x2, k64),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
      x3 = _mm_xor_si128(
          fold128(x3, k64),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
      p += 64;
      n -= 64;
    }
    x1 = _mm_xor_si128(x1, fold128(x0, k16));
    x2 = _mm_xor_si128(x2, fold128(x1, k16));
    x3 = _mm_xor_si128(x3, fold128(x2, k16));
    x = x3;
  } else {
    x = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                      _mm_cvtsi32_si128(static_cast<int>(state)));
    p += 16;
    n -= 16;
  }
  while (n >= 16) {
    x = _mm_xor_si128(fold128(x, k16),
                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    n -= 16;
  }

  // The 1–15 byte tail uses the overlapping final block zlib and Linux use:
  // the accumulator X followed by n tail bytes is the 32-byte message
  // [0^(16-n) ‖ X[0..n)] [X[n..16) ‖ tail] (leading zeros leave a CRC
  // unchanged), so one more fold replaces n table steps. The input was at
  // least 16 bytes, so the load ending at the tail stays inside it.
  if (n != 0) {
    // PSHUFB control, byte j = n+j-16: negative (selects zero) for j < 16-n,
    // else the index of X's byte j-(16-n); with bit 7 flipped it moves byte
    // j+n to each j < 16-n and zeroes the rest.
    const __m128i shuf = _mm_add_epi8(
        _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        _mm_set1_epi8(static_cast<char>(n - 16)));
    const __m128i head = _mm_shuffle_epi8(x, shuf);
    const __m128i rest = _mm_shuffle_epi8(
        x, _mm_xor_si128(shuf, _mm_set1_epi8(static_cast<char>(0x80))));
    const __m128i last =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + n - 16));
    x = _mm_xor_si128(fold128(head, k16), _mm_blendv_epi8(last, rest, shuf));
  }
  return reduce128(x, k16);
}

namespace {

// Exact 64-bit lane arithmetic for XXH64: 4-lane multiply mod 2^64 built
// from 32×32→64 partial products, and a lane rotate.
[[nodiscard]] inline __m256i mul64(__m256i a, __m256i b) noexcept {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

template <int R>
[[nodiscard]] inline __m256i rotl64x4(__m256i v) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(v, R), _mm256_srli_epi64(v, 64 - R));
}

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

}  // namespace

void xxhash64_k8_avx2(const std::uint64_t* keys, const std::uint64_t* seeds,
                      std::size_t count, std::uint64_t* out) noexcept {
  const __m256i p1 = _mm256_set1_epi64x(static_cast<long long>(kP1));
  const __m256i p2 = _mm256_set1_epi64x(static_cast<long long>(kP2));
  const __m256i p3 = _mm256_set1_epi64x(static_cast<long long>(kP3));
  const __m256i p4 = _mm256_set1_epi64x(static_cast<long long>(kP4));
  // seed + kPrime5 + len, with len == 8 for every lane.
  const __m256i p5len = _mm256_set1_epi64x(static_cast<long long>(kP5 + 8));

  for (std::size_t i = 0; i + 4 <= count; i += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i seed =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seeds + i));
    __m256i h = _mm256_add_epi64(seed, p5len);
    // h ^= round(0, k)  ==  rotl64(k·P2, 31)·P1
    h = _mm256_xor_si256(h, mul64(rotl64x4<31>(mul64(k, p2)), p1));
    // h = rotl64(h, 27)·P1 + P4
    h = _mm256_add_epi64(mul64(rotl64x4<27>(h), p1), p4);
    // avalanche
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = mul64(h, p2);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
    h = mul64(h, p3);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
}

}  // namespace dart::detail

#else  // !DART_SIMD_KERNELS — portable stubs; dispatch never selects these.

namespace dart::detail {

bool crc32_clmul_compiled() noexcept { return false; }
bool crc32_clmul_usable() noexcept { return false; }
bool xxhash64_avx2_usable() noexcept { return false; }

std::uint32_t crc32_update_clmul(std::uint32_t state, const std::byte* p,
                                 std::size_t n) noexcept {
  return crc32_update_scalar(state, p, n);
}

void xxhash64_k8_avx2(const std::uint64_t* keys, const std::uint64_t* seeds,
                      std::size_t count, std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < (count & ~std::size_t{3}); ++i) {
    out[i] = xxhash64(std::as_bytes(std::span{keys + i, 1}), seeds[i]);
  }
}

}  // namespace dart::detail

#endif
