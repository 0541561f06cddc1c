#include "milback/core/oaqfm.hpp"

#include "milback/core/contract.hpp"

namespace milback::core {

std::vector<OaqfmSymbol> uplink_pilot(std::size_t n) {
  std::vector<OaqfmSymbol> pilot(n);
  for (std::size_t i = 0; i < n; ++i) {
    pilot[i] = (i % 2 == 0) ? OaqfmSymbol::k11 : OaqfmSymbol::k00;
  }
  MILBACK_ENSURE(pilot.size() == n, "uplink_pilot: one symbol per slot");
  return pilot;
}

std::vector<OaqfmSymbol> symbols_from_bits(const std::vector<bool>& bits) {
  std::vector<OaqfmSymbol> out;
  out.reserve((bits.size() + 1) / 2);
  for (std::size_t i = 0; i < bits.size(); i += 2) {
    const bool msb = bits[i];
    const bool lsb = (i + 1 < bits.size()) ? bits[i + 1] : false;
    out.push_back(static_cast<OaqfmSymbol>((msb ? 0b10 : 0) | (lsb ? 0b01 : 0)));
  }
  MILBACK_ENSURE(out.size() == (bits.size() + 1) / 2, "symbols_from_bits: two bits per symbol");
  return out;
}

std::vector<bool> bits_from_symbols(const std::vector<OaqfmSymbol>& symbols) {
  std::vector<bool> out;
  out.reserve(symbols.size() * 2);
  for (const auto s : symbols) {
    const auto v = static_cast<std::uint8_t>(s);
    out.push_back((v & 0b10) != 0);
    out.push_back((v & 0b01) != 0);
  }
  MILBACK_ENSURE(out.size() == symbols.size() * 2, "bits_from_symbols: two bits per symbol");
  return out;
}

// milback-analyze: no-contract(total over the symbol alphabet; unknown values render as ??)
std::string to_string(OaqfmSymbol s) {
  switch (s) {
    case OaqfmSymbol::k00: return "00";
    case OaqfmSymbol::k01: return "01";
    case OaqfmSymbol::k10: return "10";
    case OaqfmSymbol::k11: return "11";
  }
  return "??";
}

}  // namespace milback::core
