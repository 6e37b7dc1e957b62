//===- support/StringUtils.cpp - Formatting helpers ----------------------===//

#include "support/StringUtils.h"

#include <cstdio>

using namespace schedfilter;

std::string schedfilter::formatDouble(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return std::string(Buf);
}

std::string schedfilter::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string schedfilter::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string schedfilter::formatPercent(double Fraction, int Decimals) {
  return formatDouble(Fraction * 100.0, Decimals) + "%";
}

std::string schedfilter::formatTrimmed(double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return std::string(Buf);
}

std::string schedfilter::formatHex64(uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[static_cast<size_t>(I)] = Digits[V & 0xf];
  return Out;
}
