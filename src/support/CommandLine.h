//===- support/CommandLine.h - Minimal flag parsing -------------*- C++ -*-===//
///
/// \file
/// A deliberately tiny command-line parser for the tools/ binaries:
/// "--flag value" and "--flag=value" options plus positional arguments.
/// No subcommands, no type registry -- the tools validate their own
/// values and print their own usage.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_SUPPORT_COMMANDLINE_H
#define SCHEDFILTER_SUPPORT_COMMANDLINE_H

#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace schedfilter {

/// Parsed command line: named options and positional arguments.
class CommandLine {
public:
  /// Parses argv.  A token "--name" consumes the following token as its
  /// value unless written "--name=value"; a bare trailing "--name" gets
  /// the value "true" (boolean flag).  Everything else is positional.
  CommandLine(int Argc, char **Argv) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) != 0) {
        Positional.push_back(Arg);
        continue;
      }
      std::string Name = Arg.substr(2);
      size_t Eq = Name.find('=');
      if (Eq != std::string::npos) {
        Options[Name.substr(0, Eq)] = Name.substr(Eq + 1);
      } else if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0) {
        Options[Name] = Argv[++I];
      } else {
        Options[Name] = "true";
      }
    }
  }

  /// Returns the option's value or \p Default when absent.
  std::string get(const std::string &Name,
                  const std::string &Default = "") const {
    auto It = Options.find(Name);
    return It == Options.end() ? Default : It->second;
  }

  /// Returns \p Default when the option is absent, the strictly-parsed
  /// value otherwise.  The whole token must be a finite decimal number:
  /// trailing garbage, NaN, infinities and out-of-double-range values all
  /// print an "--name: expected a number, got '...'" diagnostic and
  /// return nullopt so the caller can exit non-zero -- a mistyped numeric
  /// flag must never silently parse as 0 or fall back to its default
  /// (same contract as the integer knobs in tools/JobsOption.h).
  std::optional<double> getDouble(const std::string &Name,
                                  double Default) const {
    auto It = Options.find(Name);
    if (It == Options.end())
      return Default;
    const std::string &Value = It->second;
    char *End = nullptr;
    double V = std::strtod(Value.c_str(), &End);
    // strtod also parses C99 hex-float spellings ("0x10", "0x1p3");
    // reject them to keep the decimal-only contract.
    bool Hex = Value.find('x') != std::string::npos ||
               Value.find('X') != std::string::npos;
    if (Hex || End == Value.c_str() || *End != '\0' || !std::isfinite(V)) {
      std::cerr << "error: --" << Name << ": expected a number, got '"
                << Value << "'\n";
      return std::nullopt;
    }
    return V;
  }

  bool has(const std::string &Name) const { return Options.count(Name) != 0; }

  /// Options given on the command line that are not in \p Known, in
  /// sorted order --
  /// for tools that reject a typo instead of running with defaults.
  std::vector<std::string>
  unknownOptions(std::initializer_list<const char *> Known) const {
    std::vector<std::string> Unknown;
    for (const auto &Opt : Options) {
      bool Found = false;
      for (const char *K : Known)
        Found = Found || Opt.first == K;
      if (!Found)
        Unknown.push_back(Opt.first);
    }
    return Unknown;
  }

  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
};

} // namespace schedfilter

#endif // SCHEDFILTER_SUPPORT_COMMANDLINE_H
