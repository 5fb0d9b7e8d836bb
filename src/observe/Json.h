//===- observe/Json.h - Minimal JSON value + parser ------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON document model and recursive-descent parser,
/// sufficient for reading back the Chrome trace_event files the exporter
/// writes (tools/gctrace, the round-trip test), plus the one formatting
/// helper the writers share. No external dependency; numbers are stored
/// as doubles (every value the exporter emits fits a double exactly —
/// addresses are written as hex strings).
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_OBSERVE_JSON_H
#define HCSGC_OBSERVE_JSON_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hcsgc {

/// One JSON value (tree-owning).
class JsonValue {
public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() : Ty(Type::Null) {}

  Type type() const { return Ty; }
  bool isNull() const { return Ty == Type::Null; }
  bool isBool() const { return Ty == Type::Bool; }
  bool isNumber() const { return Ty == Type::Number; }
  bool isString() const { return Ty == Type::String; }
  bool isArray() const { return Ty == Type::Array; }
  bool isObject() const { return Ty == Type::Object; }

  bool boolean() const { return Bool; }
  double number() const { return Num; }
  const std::string &string() const { return Str; }
  const std::vector<JsonValue> &array() const { return Arr; }
  const std::map<std::string, JsonValue> &object() const { return Obj; }

  /// Object member access; \returns a shared null value when absent or
  /// when this is not an object.
  const JsonValue &operator[](const std::string &Key) const;

  /// Convenience accessors with defaults.
  double numberOr(double Default) const {
    return isNumber() ? Num : Default;
  }
  std::string stringOr(const std::string &Default) const {
    return isString() ? Str : Default;
  }

  static JsonValue makeBool(bool B);
  static JsonValue makeNumber(double D);
  static JsonValue makeString(std::string S);
  static JsonValue makeArray(std::vector<JsonValue> A);
  static JsonValue makeObject(std::map<std::string, JsonValue> O);

private:
  Type Ty;
  bool Bool = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
};

/// Parses \p Text. On failure returns false and fills \p Error with a
/// message including the byte offset.
bool parseJson(const std::string &Text, JsonValue &Out,
               std::string &Error);

/// Appends printf-style output to \p Out, however long it is: the
/// string grows to fit, nothing is truncated.
void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace hcsgc

#endif // HCSGC_OBSERVE_JSON_H
