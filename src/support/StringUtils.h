//===- support/StringUtils.h - Formatting helpers --------------*- C++ -*-===//
///
/// \file
/// Tiny string helpers shared by the table renderers, rule printers and
/// every reader of numbers from text.  Kept deliberately minimal: fixed
/// precision doubles, padding, percentage formatting, and the one strict
/// number grammar (flags, --workload weights, --noise parameters, rules
/// files and CSV traces all parse through parseDecimal/parseDigits).
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

/// Outcome of a strict numeric parse.
enum class NumberParse { Ok, NotANumber, OutOfRange };

/// Strict decimal number: the whole of \p Text must parse (strtod syntax)
/// as one finite double.  Empty text, trailing junk and C99 hex spellings
/// ("0x10", "0x1p3") are NotANumber; NaN, infinities and values past the
/// double range are OutOfRange.  \p Out is written only on Ok.
NumberParse parseDecimal(const std::string &Text, double &Out);

/// Strict unsigned decimal integer: digits only -- no sign, space,
/// fraction or exponent.  Empty text or any other character is
/// NotANumber; a value past UINT64_MAX is OutOfRange.  \p Out is written
/// only on Ok.
NumberParse parseDigits(const std::string &Text, uint64_t &Out);

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_STRINGUTILS_H
