#include "crypto/session_code.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/mac_input.hpp"

namespace jrsnd::crypto {

BitVector derive_session_code(const SymmetricKey& pair_key, const BitVector& nonce_a,
                              const BitVector& nonce_b, std::size_t code_length_chips) {
  return derive_session_code(HmacKey(pair_key), nonce_a, nonce_b, code_length_chips);
}

BitVector derive_session_code(const HmacKey& pair_key, const BitVector& nonce_a,
                              const BitVector& nonce_b, std::size_t code_length_chips) {
  if (nonce_a.size() != nonce_b.size()) {
    throw std::invalid_argument("derive_session_code: nonce length mismatch");
  }
  if (nonce_a.size() > 64) {
    throw std::invalid_argument("derive_session_code: nonce wider than 64 bits");
  }
  // Domain-separated PRF expansion of the XORed nonces to N bits. The info
  // string is "session-code:" + lowercase hex of the XOR's bytes (MSB-first,
  // zero-padded), built in place.
  static constexpr char kPrefix[] = "session-code:";
  static constexpr char kDigits[] = "0123456789abcdef";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  std::array<std::uint8_t, kPrefixLen + 2 * 8> info{};
  std::copy(kPrefix, kPrefix + kPrefixLen, info.begin());
  const std::size_t bits = nonce_a.size();
  std::array<std::uint8_t, 8> mixed{};
  const std::size_t bytes =
      bits == 0 ? 0
                : pack_bits_msb_first(nonce_a.read_uint(0, bits) ^ nonce_b.read_uint(0, bits),
                                      bits, mixed.data());
  for (std::size_t i = 0; i < bytes; ++i) {
    info[kPrefixLen + 2 * i] = static_cast<std::uint8_t>(kDigits[mixed[i] >> 4]);
    info[kPrefixLen + 2 * i + 1] = static_cast<std::uint8_t>(kDigits[mixed[i] & 0x0f]);
  }
  return derive_bits(pair_key, std::span<const std::uint8_t>(info.data(), kPrefixLen + 2 * bytes),
                     code_length_chips);
}

}  // namespace jrsnd::crypto
