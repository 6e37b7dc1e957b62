//===- io/TraceStore.cpp - Versioned trace formats (CSV + SFTB1) ------------===//

#include "io/TraceStore.h"

#include "features/Features.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

using namespace schedfilter;

//===----------------------------------------------------------------------===//
// Record payload
//===----------------------------------------------------------------------===//

std::string wire::encodeRecords(const std::vector<BlockRecord> &Records) {
  std::string Payload;
  Payload.reserve(Records.size() * (NumFeatures * 8 + 24));
  for (const BlockRecord &R : Records) {
    for (unsigned F = 0; F != NumFeatures; ++F)
      putF64(Payload, R.X[F]);
    putU64(Payload, R.CostNoSched);
    putU64(Payload, R.CostSched);
    putU64(Payload, R.ExecCount);
  }
  return Payload;
}

ParseResult<std::vector<BlockRecord>>
wire::decodeRecords(const char *P, const char *End, uint64_t Count) {
  std::vector<BlockRecord> Records;
  Records.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    BlockRecord R;
    bool Ok = true;
    for (unsigned F = 0; F != NumFeatures && Ok; ++F)
      Ok = getF64(P, End, R.X[F]);
    Ok = Ok && getU64(P, End, R.CostNoSched) && getU64(P, End, R.CostSched) &&
         getU64(P, End, R.ExecCount);
    if (!Ok)
      return ParseError{static_cast<size_t>(I + 1),
                        "record payload truncated"};
    // Raw IEEE bits survive the checksum, so NaN and infinity must be
    // refused here: a NaN feature breaks the strict weak order of the
    // trainer's column sort.
    for (unsigned F = 0; F != NumFeatures; ++F)
      if (!std::isfinite(R.X[F]))
        return ParseError{static_cast<size_t>(I + 1),
                          std::string(getFeatureName(F)) +
                              " value is not finite"};
    Records.push_back(R);
  }
  return Records;
}

//===----------------------------------------------------------------------===//
// Shared formatting
//===----------------------------------------------------------------------===//

std::string schedfilter::formatDoubleShortest(double V) {
  char Buf[40];
  for (int Prec = 15; Prec <= 17; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

//===----------------------------------------------------------------------===//
// CSV
//===----------------------------------------------------------------------===//

namespace {

std::string expectedHeader() {
  std::string H;
  for (unsigned F = 0; F != NumFeatures; ++F) {
    H += getFeatureName(F);
    H += ',';
  }
  H += "costNoSched,costSched,execCount";
  return H;
}

void stripCR(std::string &Line) {
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
}

void splitCells(const std::string &Line, std::vector<std::string> &Cells) {
  Cells.clear();
  size_t Start = 0;
  while (true) {
    size_t Comma = Line.find(',', Start);
    if (Comma == std::string::npos) {
      Cells.push_back(Line.substr(Start));
      return;
    }
    Cells.push_back(Line.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
}

/// Strict feature-cell parse through the shared number grammar
/// (parseDecimal): hex spellings, NaN, infinities and overflow are
/// refused, as in the binary decoder and the rules-file reader.  Returns
/// the reason on failure, "" on success.
std::string parseFeatureCell(const std::string &Cell, const char *ColName,
                             double &Out) {
  NumberParse P = parseDecimal(Cell, Out);
  if (P == NumberParse::Ok)
    return "";
  return std::string(ColName) + " cell '" + Cell +
         (P == NumberParse::NotANumber ? "' is not a number"
                                       : "' is not finite");
}

/// Strict unsigned-integer cell parse (parseDigits): no sign, fraction or
/// exponent, must fit uint64_t.  Returns the reason on failure, "" on
/// success -- the silent-truncation fix: "7154.5" and 2^64 used to be
/// accepted and cast through strtod.
std::string parseU64Cell(const std::string &Cell, const char *ColName,
                         uint64_t &Out) {
  if (Cell.empty())
    return std::string(ColName) + " cell is empty";
  NumberParse P = parseDigits(Cell, Out);
  if (P == NumberParse::Ok)
    return "";
  return std::string(ColName) + " cell '" + Cell +
         (P == NumberParse::NotANumber ? "' is not an unsigned integer"
                                       : "' overflows uint64_t");
}

ParseResult<std::vector<BlockRecord>> readTraceCsvBody(std::istream &IS,
                                                       std::string Header) {
  if (Header != expectedHeader())
    return ParseError{1, "bad trace header (expected '" + expectedHeader() +
                             "')"};

  std::vector<BlockRecord> Records;
  std::vector<std::string> Cells;
  std::string Line;
  size_t LineNo = 1;
  const size_t ExpectedCells = NumFeatures + 3;
  while (std::getline(IS, Line)) {
    ++LineNo;
    stripCR(Line);
    if (Line.empty())
      continue;
    splitCells(Line, Cells);
    if (Cells.size() != ExpectedCells)
      return ParseError{LineNo, "row has " + std::to_string(Cells.size()) +
                                    " cells, expected " +
                                    std::to_string(ExpectedCells)};
    BlockRecord R;
    for (unsigned F = 0; F != NumFeatures; ++F) {
      std::string Why = parseFeatureCell(Cells[F], getFeatureName(F), R.X[F]);
      if (!Why.empty())
        return ParseError{LineNo, Why};
    }
    const char *Cols[3] = {"costNoSched", "costSched", "execCount"};
    uint64_t *Dsts[3] = {&R.CostNoSched, &R.CostSched, &R.ExecCount};
    for (int I = 0; I != 3; ++I) {
      std::string Why = parseU64Cell(Cells[NumFeatures + I], Cols[I], *Dsts[I]);
      if (!Why.empty())
        return ParseError{LineNo, Why};
    }
    Records.push_back(R);
  }
  return Records;
}

//===----------------------------------------------------------------------===//
// SFTB1
//===----------------------------------------------------------------------===//

ParseResult<std::vector<BlockRecord>> readTraceBinaryBody(std::istream &IS) {
  std::string Rest((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  const char *P = Rest.data();
  const char *End = P + Rest.size();

  uint16_t FeatCount;
  uint64_t Count, Checksum;
  if (!wire::getU16(P, End, FeatCount) || !wire::getU64(P, End, Count) ||
      !wire::getU64(P, End, Checksum))
    return ParseError{0, "truncated SFTB1 header"};
  if (FeatCount != NumFeatures)
    return ParseError{0, "SFTB1 trace has " + std::to_string(FeatCount) +
                             " features per record, this build expects " +
                             std::to_string(static_cast<unsigned>(
                                 NumFeatures))};

  const uint64_t RecordSize = NumFeatures * 8 + 24;
  const uint64_t Avail = static_cast<uint64_t>(End - P);
  if (Count > Avail / RecordSize || Count * RecordSize > Avail)
    return ParseError{0, "SFTB1 payload truncated: header promises " +
                             std::to_string(Count) + " records, only " +
                             std::to_string(Avail) + " payload bytes"};
  if (Count * RecordSize < Avail)
    return ParseError{0, "SFTB1 payload has " +
                             std::to_string(Avail - Count * RecordSize) +
                             " trailing bytes"};
  if (wire::fnv1a(P, static_cast<size_t>(Avail)) != Checksum)
    return ParseError{0, "SFTB1 checksum mismatch (corrupt payload)"};
  return wire::decodeRecords(P, End, Count);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

void schedfilter::writeTrace(const std::vector<BlockRecord> &Records,
                             std::ostream &OS, TraceFormat Format) {
  if (Format == TraceFormat::Csv) {
    OS << expectedHeader() << '\n';
    for (const BlockRecord &R : Records) {
      for (unsigned F = 0; F != NumFeatures; ++F)
        OS << formatDoubleShortest(R.X[F]) << ',';
      OS << R.CostNoSched << ',' << R.CostSched << ',' << R.ExecCount << '\n';
    }
    return;
  }

  std::string Payload = wire::encodeRecords(Records);
  std::string Header(TraceBinaryMagic);
  Header += '\n';
  wire::putU16(Header, NumFeatures);
  wire::putU64(Header, Records.size());
  wire::putU64(Header, wire::fnv1a(Payload.data(), Payload.size()));
  OS.write(Header.data(), static_cast<std::streamsize>(Header.size()));
  OS.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
}

ParseResult<std::vector<BlockRecord>> schedfilter::readTrace(std::istream &IS) {
  std::string First;
  if (!std::getline(IS, First))
    return ParseError{0, "empty input (expected a trace header or SFTB1 "
                         "magic)"};
  if (First == TraceBinaryMagic)
    return readTraceBinaryBody(IS);
  stripCR(First);
  return readTraceCsvBody(IS, std::move(First));
}

ParseResult<std::vector<BlockRecord>>
schedfilter::readTraceFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return ParseError{0, "cannot open file"}; // callers prefix the path
  return readTrace(IS);
}
