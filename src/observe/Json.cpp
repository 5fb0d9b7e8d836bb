//===- observe/Json.cpp - Minimal JSON value + parser -------------------------===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "observe/Json.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace hcsgc;

const JsonValue &JsonValue::operator[](const std::string &Key) const {
  static const JsonValue Null;
  if (Ty != Type::Object)
    return Null;
  auto It = Obj.find(Key);
  return It == Obj.end() ? Null : It->second;
}

JsonValue JsonValue::makeBool(bool B) {
  JsonValue V;
  V.Ty = Type::Bool;
  V.Bool = B;
  return V;
}
JsonValue JsonValue::makeNumber(double D) {
  JsonValue V;
  V.Ty = Type::Number;
  V.Num = D;
  return V;
}
JsonValue JsonValue::makeString(std::string S) {
  JsonValue V;
  V.Ty = Type::String;
  V.Str = std::move(S);
  return V;
}
JsonValue JsonValue::makeArray(std::vector<JsonValue> A) {
  JsonValue V;
  V.Ty = Type::Array;
  V.Arr = std::move(A);
  return V;
}
JsonValue JsonValue::makeObject(std::map<std::string, JsonValue> O) {
  JsonValue V;
  V.Ty = Type::Object;
  V.Obj = std::move(O);
  return V;
}

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return true;
  }

private:
  bool fail(const char *Msg) {
    Error = std::string(Msg) + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("invalid literal");
    Pos += Len;
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out);
    case '[':
      return parseArray(Out);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue::makeString(std::move(S));
      return true;
    }
    case 't':
      if (!literal("true"))
        return false;
      Out = JsonValue::makeBool(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = JsonValue::makeBool(false);
      return true;
    case 'n':
      if (!literal("null"))
        return false;
      Out = JsonValue();
      return true;
    default:
      return parseNumber(Out);
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("invalid value");
    char *End = nullptr;
    std::string Tok = Text.substr(Start, Pos - Start);
    double D = std::strtod(Tok.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    Out = JsonValue::makeNumber(D);
    return true;
  }

  bool parseString(std::string &Out) {
    if (Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return fail("unterminated escape");
        char E = Text[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          unsigned V = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              V |= static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs are not
          // produced by our exporter; treat them as-is).
          if (V < 0x80) {
            Out += static_cast<char>(V);
          } else if (V < 0x800) {
            Out += static_cast<char>(0xC0 | (V >> 6));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (V >> 12));
            Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseArray(JsonValue &Out) {
    ++Pos; // '['
    std::vector<JsonValue> Elems;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      Out = JsonValue::makeArray(std::move(Elems));
      return true;
    }
    for (;;) {
      skipWs();
      JsonValue V;
      if (!parseValue(V))
        return false;
      Elems.push_back(std::move(V));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        Out = JsonValue::makeArray(std::move(Elems));
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(JsonValue &Out) {
    ++Pos; // '{'
    std::map<std::string, JsonValue> Members;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      Out = JsonValue::makeObject(std::move(Members));
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      JsonValue V;
      if (!parseValue(V))
        return false;
      Members[Key] = std::move(V);
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        Out = JsonValue::makeObject(std::move(Members));
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool hcsgc::parseJson(const std::string &Text, JsonValue &Out,
                      std::string &Error) {
  Parser P(Text, Error);
  return P.parse(Out);
}

void hcsgc::appendf(std::string &Out, const char *Fmt, ...) {
  va_list Ap, Again;
  va_start(Ap, Fmt);
  va_copy(Again, Ap);
  // Most fields fit the stack buffer; a longer one is formatted a second
  // time straight into the grown string.
  char Buf[128];
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  if (N > 0 && static_cast<size_t>(N) < sizeof(Buf)) {
    Out.append(Buf, static_cast<size_t>(N));
  } else if (N > 0) {
    size_t Old = Out.size();
    Out.resize(Old + static_cast<size_t>(N) + 1);
    std::vsnprintf(&Out[Old], static_cast<size_t>(N) + 1, Fmt, Again);
    Out.resize(Old + static_cast<size_t>(N));
  }
  va_end(Again);
  va_end(Ap);
}
