//===- io/Envelope.cpp - Sealed, atomically written artifacts ---------------===//

#include "io/Envelope.h"

#include "support/Wire.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

using namespace schedfilter;

bool schedfilter::writeEnvelope(const std::string &Path, const char *Magic,
                                const std::string &Body) {
  std::string Bytes(Magic);
  Bytes += '\n';
  wire::putU64(Bytes, wire::fnv1a(Body.data(), Body.size()));
  Bytes += Body;

  std::error_code EC;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), EC); // best effort

  static std::atomic<uint64_t> Serial{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Serial.fetch_add(1));
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    OS.flush();
    if (!OS) {
      OS.close();
      std::filesystem::remove(Tmp, EC);
      return false;
    }
  }
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

bool schedfilter::readFileBytes(const std::string &Path, std::string &Bytes) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return false;
  Bytes.assign(std::istreambuf_iterator<char>(IS),
               std::istreambuf_iterator<char>());
  return true;
}

ParseResult<std::string> schedfilter::openEnvelope(const char *Magic,
                                                   std::string Bytes) {
  const size_t MagicLen = std::strlen(Magic);
  if (Bytes.size() <= MagicLen || Bytes.compare(0, MagicLen, Magic) != 0 ||
      Bytes[MagicLen] != '\n')
    return ParseError{0, "not an " + std::string(Magic) + " entry"};
  const char *P = Bytes.data() + MagicLen + 1;
  const char *End = Bytes.data() + Bytes.size();
  uint64_t Checksum;
  if (!wire::getU64(P, End, Checksum))
    return ParseError{0, "truncated entry (no checksum)"};
  if (wire::fnv1a(P, static_cast<size_t>(End - P)) != Checksum)
    return ParseError{0, "checksum mismatch (corrupt or truncated entry)"};
  Bytes.erase(0, static_cast<size_t>(P - Bytes.data()));
  return Bytes;
}
