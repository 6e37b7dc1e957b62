//===- support/StringUtils.cpp - Formatting helpers ----------------------===//

#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

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

NumberParse schedfilter::parseDecimal(const std::string &Text, double &Out) {
  if (Text.find_first_of("xX") != std::string::npos)
    return NumberParse::NotANumber;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || End != Text.c_str() + Text.size())
    return NumberParse::NotANumber;
  if (!std::isfinite(V))
    return NumberParse::OutOfRange;
  Out = V;
  return NumberParse::Ok;
}

NumberParse schedfilter::parseDigits(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return NumberParse::NotANumber;
  uint64_t V = 0;
  bool Overflow = false;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return NumberParse::NotANumber;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    Overflow = Overflow || V > (UINT64_MAX - Digit) / 10;
    V = V * 10 + Digit;
  }
  if (Overflow)
    return NumberParse::OutOfRange;
  Out = V;
  return NumberParse::Ok;
}
