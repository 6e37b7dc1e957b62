//===- support/Wire.h - Little-endian wire codec and FNV-1a -----*- C++ -*-===//
///
/// \file
/// The byte-level codec every binary artifact and fingerprint in the
/// repository is built from: little-endian fixed-width integers, IEEE-754
/// doubles by bit pattern, length-prefixed strings, and the FNV-1a 64-bit
/// hash.  The SFTB1 trace format (io/TraceStore.h), the sealed SFCC1 and
/// SFFR1 entries (io/Envelope.h), the benchmark-spec and workload-mix
/// fingerprints and the rule-set fingerprint all encode through here, so
/// a byte written by one reads back identically in every other.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_WIRE_H
#define SCHEDFILTER_SUPPORT_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace schedfilter {
namespace wire {

void putU16(std::string &Out, uint16_t V);
void putU32(std::string &Out, uint32_t V);
void putU64(std::string &Out, uint64_t V);
void putF64(std::string &Out, double V);
void putString(std::string &Out, const std::string &S); ///< u32 length + bytes

/// Cursor-based readers: advance \p P, fail (return false) on underrun.
bool getU16(const char *&P, const char *End, uint16_t &V);
bool getU32(const char *&P, const char *End, uint32_t &V);
bool getU64(const char *&P, const char *End, uint64_t &V);
bool getF64(const char *&P, const char *End, double &V);
bool getString(const char *&P, const char *End, std::string &S);

/// FNV-1a 64-bit over \p Size bytes.
uint64_t fnv1a(const char *Data, size_t Size);

} // namespace wire
} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_WIRE_H
