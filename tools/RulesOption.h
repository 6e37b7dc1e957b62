//===- tools/RulesOption.h - Shared --rules file loading --------*- C++ -*-===//
//
// The one implementation of "open a rules file, parse it strictly, and
// report failures in the io/ file:line discipline" that sf-apply,
// sf-serve, and sf-lint all share, and of writing one back (sf-train,
// sf-lint --fix).  Three entry points:
//
//   readRulesFileChecked  -- open + parse; diagnostics to stderr as
//                            "error: PATH[:LINE]: message".  For tools
//                            that run their own analysis afterwards
//                            (sf-lint lints the parsed set itself).
//   loadRulesFileWithLint -- the above plus the load-time lint: analyzer
//                            findings print to stderr (the load still
//                            succeeds -- predict() is well-defined even
//                            for a sloppy rule set; sf-lint --fix
//                            normalizes).  For tools about to *use* the
//                            filter (sf-apply, sf-serve).
//   writeRulesFileChecked -- write in the v1 text format; a file that
//                            cannot be opened or fully written (disk
//                            full) is an error, never a silent success.
//
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TOOLS_RULESOPTION_H
#define SCHEDFILTER_TOOLS_RULESOPTION_H

#include "analysis/RuleAnalysis.h"
#include "ml/Serialization.h"

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

namespace schedfilter {

/// Opens and strictly parses \p Path.  On failure prints the diagnostic
/// ("error: PATH:LINE: message"; no line for open failures) to stderr and
/// returns nullopt.
inline std::optional<RuleSetFile>
readRulesFileChecked(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::cerr << "error: cannot open rules '" << Path << "'\n";
    return std::nullopt;
  }
  ParseResult<RuleSetFile> Parsed = readRuleSetFile(IS);
  if (!Parsed) {
    const ParseError &E = Parsed.error();
    std::cerr << "error: " << Path
              << (E.Line ? ":" + std::to_string(E.Line) : "") << ": "
              << E.Message << '\n';
    return std::nullopt;
  }
  return std::move(*Parsed);
}

/// readRulesFileChecked plus the load-time lint: a dead or shadowed rule
/// burns serve-path work for nothing, so say so (stderr) before the tool
/// proceeds with the filter anyway.
inline std::optional<RuleSetFile>
loadRulesFileWithLint(const std::string &Path) {
  std::optional<RuleSetFile> File = readRulesFileChecked(Path);
  if (File) {
    RuleAnalysis Lint = analyzeRuleSet(File->Rules);
    if (!Lint.clean())
      printFindings(Lint, std::cerr, Path, &File->RuleLines);
  }
  return File;
}

/// Writes \p Rules to \p Path in the v1 text format.  Returns false after
/// a printed diagnostic when the file cannot be opened or fully written.
inline bool writeRulesFileChecked(const std::string &Path,
                                  const RuleSet &Rules) {
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS) {
    std::cerr << "error: cannot open '" << Path << "' for writing\n";
    return false;
  }
  writeRuleSet(Rules, OS);
  OS.flush();
  if (!OS) {
    std::cerr << "error: failed writing '" << Path
              << "' (disk full or device error)\n";
    return false;
  }
  return true;
}

} // namespace schedfilter

#endif // SCHEDFILTER_TOOLS_RULESOPTION_H
