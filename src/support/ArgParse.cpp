//===- support/ArgParse.cpp - Tiny CLI flag parser ------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace hcsgc;

[[noreturn]] static void badValue(const std::string &Key,
                                  const std::string &Value,
                                  const char *Expected) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
               Key.c_str(), Value.c_str(), Expected);
  std::exit(2);
}

ArgParse::ArgParse(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      // No binary takes a positional argument: a bare or single-dash
      // one (`-runs=1`) is a mistyped flag, left for rejectUnknown.
      Stray.push_back(std::move(Arg));
      continue;
    }
    Arg = Arg.substr(2);
    size_t Eq = Arg.find('=');
    if (Eq == std::string::npos)
      Values[Arg].Value = "1";
    else
      Values[Arg.substr(0, Eq)].Value = Arg.substr(Eq + 1);
  }
}

const std::string *ArgParse::lookup(const std::string &Key) const {
  auto It = Values.find(Key);
  if (It == Values.end())
    return nullptr;
  It->second.Read = true;
  return &It->second.Value;
}

void ArgParse::rejectUnknown() const {
  bool Unknown = !Stray.empty();
  for (const std::string &Arg : Stray)
    std::fprintf(stderr, "unknown argument: %s\n", Arg.c_str());
  for (const auto &[Key, E] : Values) {
    if (E.Read)
      continue;
    std::fprintf(stderr, "unknown flag: --%s\n", Key.c_str());
    Unknown = true;
  }
  if (Unknown)
    std::exit(2);
}

std::string ArgParse::getString(const std::string &Key,
                                const std::string &Default) const {
  const std::string *V = lookup(Key);
  return V ? *V : Default;
}

int64_t ArgParse::parseInt(const std::string &Key, const std::string &Value) {
  const char *Begin = Value.c_str();
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Begin, &End, 0);
  if (End == Begin || *End != '\0' || errno == ERANGE)
    badValue(Key, Value, "an integer");
  return N;
}

int64_t ArgParse::getInt(const std::string &Key, int64_t Default) const {
  const std::string *V = lookup(Key);
  return V ? parseInt(Key, *V) : Default;
}

double ArgParse::getDouble(const std::string &Key, double Default) const {
  const std::string *V = lookup(Key);
  if (!V)
    return Default;
  const char *Begin = V->c_str();
  char *End = nullptr;
  errno = 0;
  double D = std::strtod(Begin, &End);
  if (End == Begin || *End != '\0' || errno == ERANGE)
    badValue(Key, *V, "a number");
  return D;
}

bool ArgParse::getBool(const std::string &Key, bool Default) const {
  const std::string *V = lookup(Key);
  if (!V)
    return Default;
  return *V != "0" && *V != "false" && *V != "off";
}
