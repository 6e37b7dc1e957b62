//===- support/Wire.cpp - Little-endian wire codec and FNV-1a ---------------===//

#include "support/Wire.h"

#include <cstring>

using namespace schedfilter;

void wire::putU16(std::string &Out, uint16_t V) {
  for (int I = 0; I != 2; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void wire::putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void wire::putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void wire::putF64(std::string &Out, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

void wire::putString(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

bool wire::getU16(const char *&P, const char *End, uint16_t &V) {
  if (End - P < 2)
    return false;
  V = 0;
  for (int I = 0; I != 2; ++I)
    V = static_cast<uint16_t>(V | static_cast<uint16_t>(
                                      static_cast<unsigned char>(P[I]))
                                      << (8 * I));
  P += 2;
  return true;
}

bool wire::getU32(const char *&P, const char *End, uint32_t &V) {
  if (End - P < 4)
    return false;
  V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  P += 4;
  return true;
}

bool wire::getU64(const char *&P, const char *End, uint64_t &V) {
  if (End - P < 8)
    return false;
  V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(P[I])) << (8 * I);
  P += 8;
  return true;
}

bool wire::getF64(const char *&P, const char *End, double &V) {
  uint64_t Bits;
  if (!getU64(P, End, Bits))
    return false;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool wire::getString(const char *&P, const char *End, std::string &S) {
  uint32_t Len;
  if (!getU32(P, End, Len) || static_cast<size_t>(End - P) < Len)
    return false;
  S.assign(P, Len);
  P += Len;
  return true;
}

uint64_t wire::fnv1a(const char *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != Size; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}
