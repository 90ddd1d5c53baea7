#ifndef MCHECK_SUPPORT_HASH_H
#define MCHECK_SUPPORT_HASH_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mc::support {

/**
 * Streaming FNV-1a 64-bit hasher.
 *
 * Used wherever the system needs a *stable* content hash — one whose
 * value survives process restarts and is identical across platforms —
 * most importantly for the analysis cache's content-addressed keys
 * (std::hash gives no such guarantee). Strings are length-prefixed so
 * adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
 */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffset = 1469598103934665603ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    /**
     * A hasher that continues from `state`, an earlier hasher's value():
     * hashing a common prefix once and resuming it per suffix gives the
     * same value as hashing prefix + suffix from scratch.
     */
    static Fnv1a resume(std::uint64_t state)
    {
        Fnv1a h;
        h.h_ = state;
        return h;
    }

    Fnv1a& bytes(const void* data, std::size_t n)
    {
        const unsigned char* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= kPrime;
        }
        return *this;
    }

    Fnv1a& str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    Fnv1a& u64(std::uint64_t v)
    {
        // Fixed little-endian byte order, independent of host endianness.
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(b, 8);
    }

    Fnv1a& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

    Fnv1a& u8(std::uint8_t v) { return bytes(&v, 1); }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = kOffset;
};

/** One-shot hash of a byte string. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    return Fnv1a().bytes(s.data(), s.size()).value();
}

/** Render a 64-bit hash as 16 lowercase hex digits (cache file names). */
inline std::string
hashHex(std::uint64_t h)
{
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace mc::support

#endif // MCHECK_SUPPORT_HASH_H
