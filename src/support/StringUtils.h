//===- support/StringUtils.h - Formatting helpers --------------*- C++ -*-===//
///
/// \file
/// Tiny string-formatting helpers shared by the table renderers and rule
/// printers.  Kept deliberately minimal: fixed precision doubles, padding,
/// and percentage formatting.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_STRINGUTILS_H
#define SCHEDFILTER_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>

namespace schedfilter {

/// Formats \p Value with exactly \p Decimals digits after the point.
std::string formatDouble(double Value, int Decimals);

/// Left-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padLeft(const std::string &S, size_t Width);

/// Right-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padRight(const std::string &S, size_t Width);

/// Formats a fraction as a percent string, e.g. 0.379 -> "37.9%".
std::string formatPercent(double Fraction, int Decimals = 1);

/// Formats \p Value with up to six significant digits and no trailing
/// zeros, e.g. 0.1 -> "0.1", 2 -> "2".  Used for canonical parameter
/// spellings that must round-trip through strtod.
std::string formatTrimmed(double Value);

/// Formats \p V as 16 lowercase hex digits, zero-padded (no "0x").
std::string formatHex64(uint64_t V);

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_STRINGUTILS_H
