//===- support/ArgParse.h - Tiny CLI flag parser ---------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal `--key=value` command-line parser for the benchmark and
/// example binaries. The command line is the only source of values, a
/// malformed number is a usage error, never a silent 0, and a flag that
/// no getter reads is a usage error too (rejectUnknown).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SUPPORT_ARGPARSE_H
#define HCSGC_SUPPORT_ARGPARSE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hcsgc {

/// Parses `--key=value` and bare `--flag` arguments; anything else is
/// an unknown argument.
class ArgParse {
public:
  ArgParse(int Argc, char **Argv);

  /// \returns the string value for \p Key from the command line, or
  /// \p Default.
  std::string getString(const std::string &Key,
                        const std::string &Default) const;

  /// Integer variant of getString; the value goes through parseInt.
  int64_t getInt(const std::string &Key, int64_t Default) const;

  /// Floating-point variant of getString. Exits like parseInt when the
  /// value is not a number.
  double getDouble(const std::string &Key, double Default) const;

  /// \returns true if `--key` was passed without a value or with any
  /// value other than 0/false/off.
  bool getBool(const std::string &Key, bool Default) const;

  /// Parses \p Value, given for flag `--Key`, as a decimal (or 0x hex)
  /// integer. A value with no digits, trailing characters or out of
  /// range prints a message naming the flag and exits with status 2.
  static int64_t parseInt(const std::string &Key, const std::string &Value);

  /// Call after the last getter: if any `--flag` on the command line was
  /// never looked up, or any argument does not start with `--`, prints
  /// every such argument and exits with status 2, so a mistyped or
  /// removed flag cannot silently do nothing.
  void rejectUnknown() const;

private:
  struct Entry {
    std::string Value;
    mutable bool Read = false;
  };

  const std::string *lookup(const std::string &Key) const;

  std::map<std::string, Entry> Values;
  /// Arguments without the `--` prefix; no getter can read them.
  std::vector<std::string> Stray;
};

} // namespace hcsgc

#endif // HCSGC_SUPPORT_ARGPARSE_H
