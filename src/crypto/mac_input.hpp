// Fixed-buffer packing of the D-NDP AUTH MAC input f_K(ID | n).
//
// The layout is one wire format shared by the message layer (which computes
// the MAC when it builds an AUTH message) and the verification pipeline
// (which rebuilds it from a received frame): the sender ID as a 32-bit
// big-endian field, then the l_n nonce bits MSB-first, zero-padded to a byte
// boundary. With l_n <= 64 the input never exceeds 12 bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace jrsnd::crypto {

inline constexpr std::size_t kMaxAuthMacInputBytes = 12;

/// Writes the low `width` bits of `bits` (width <= 64) MSB-first into
/// ceil(width / 8) bytes at `out`, zero-padding the last byte on the right
/// (a left-justified big-endian field). Returns the number of bytes written.
inline std::size_t pack_bits_msb_first(std::uint64_t bits, std::size_t width,
                                       std::uint8_t* out) noexcept {
  const std::size_t bytes = (width + 7) / 8;
  if (bytes == 0) return 0;
  const std::uint64_t shifted = bits << (bytes * 8 - width);
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(shifted >> (8 * (bytes - 1 - i)));
  }
  return bytes;
}

/// Packs ID | nonce into `out` (zeroed first). `nonce_bits` holds the
/// `nonce_width`-bit nonce (nonce_width <= 64). Returns the input length.
inline std::size_t pack_auth_mac_input(std::uint32_t sender, std::uint64_t nonce_bits,
                                       std::size_t nonce_width,
                                       std::array<std::uint8_t, kMaxAuthMacInputBytes>& out) noexcept {
  out.fill(0);
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(sender >> (24 - 8 * i));
  }
  return 4 + pack_bits_msb_first(nonce_bits, nonce_width, out.data() + 4);
}

}  // namespace jrsnd::crypto
