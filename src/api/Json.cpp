//===- api/Json.cpp -------------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace omega::api::json;

std::optional<int64_t> Value::asIntIn(int64_t Lo, int64_t Hi) const {
  // [-2^63, 2^63) is exactly the set of doubles that convert to int64_t.
  if (K != Kind::Number || !(Num >= -0x1p63 && Num < 0x1p63) ||
      std::trunc(Num) != Num)
    return std::nullopt;
  int64_t I = static_cast<int64_t>(Num);
  if (I < Lo || I > Hi)
    return std::nullopt;
  return I;
}

int64_t Value::asInt() const {
  return asIntIn(INT64_MIN, INT64_MAX).value_or(0);
}

const Value *Value::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

namespace {

/// Recursion bound for nested arrays/objects: generous for any real
/// request document, small enough that hostile input ("[[[[...") fails
/// with a clean error instead of exhausting the stack.
constexpr unsigned MaxDepth = 64;

struct Parser {
  const std::string &Text;
  std::size_t Pos = 0;
  std::string &Err;
  unsigned Depth = 0;

  bool fail(const std::string &What) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " at byte %zu", Pos);
    Err = What + Buf;
    return false;
  }

  void skipWS() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C, const char *What) {
    skipWS();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(std::string("expected ") + What);
    ++Pos;
    return true;
  }

  bool literal(const char *Word, std::size_t Len) {
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("bad literal (expected ") + Word + ")");
    Pos += Len;
    return true;
  }

  /// Reads exactly four hex digits into \p Code. On a short or malformed
  /// run, Pos points at the offending byte so the error offset is exact.
  bool parseHex4(unsigned &Code) {
    if (Pos + 4 > Text.size()) {
      Pos = Text.size();
      return fail("truncated \\u escape");
    }
    Code = 0;
    for (int I = 0; I != 4; ++I) {
      char H = Text[Pos];
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code |= static_cast<unsigned>(H - '0');
      else if (H >= 'a' && H <= 'f')
        Code |= static_cast<unsigned>(H - 'a' + 10);
      else if (H >= 'A' && H <= 'F')
        Code |= static_cast<unsigned>(H - 'A' + 10);
      else
        return fail("bad \\u escape digit");
      ++Pos;
    }
    return true;
  }

  /// Appends \p Code as UTF-8 (Code is a scalar value; surrogates were
  /// already combined or rejected by the caller).
  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    if (!consume('"', "string"))
      return false;
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
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
          unsigned Code;
          if (!parseHex4(Code))
            return false;
          // RFC 8259 represents code points beyond the BMP as a surrogate
          // pair of \u escapes. A high surrogate must be followed by a
          // \u-escaped low surrogate; unpaired surrogates are malformed.
          if (Code >= 0xD800 && Code <= 0xDBFF) {
            if (Pos + 2 > Text.size() || Text[Pos] != '\\' ||
                Text[Pos + 1] != 'u')
              return fail("unpaired high surrogate");
            Pos += 2;
            unsigned Low;
            if (!parseHex4(Low))
              return false;
            if (Low < 0xDC00 || Low > 0xDFFF)
              return fail("invalid low surrogate");
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          appendUtf8(Out, Code);
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      Out += C;
    }
  }

  bool parseValue(Value &Out) {
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    skipWS();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    bool Ok = parseValueInner(Out);
    --Depth;
    return Ok;
  }

  bool parseValueInner(Value &Out) {
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = Value::Kind::Object;
      skipWS();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        std::string Key;
        skipWS();
        if (!parseString(Key))
          return false;
        if (!consume(':', "':'"))
          return false;
        Value V;
        if (!parseValue(V))
          return false;
        Out.Obj.emplace_back(std::move(Key), std::move(V));
        skipWS();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = Value::Kind::Array;
      skipWS();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Value V;
        if (!parseValue(V))
          return false;
        Out.Arr.push_back(std::move(V));
        skipWS();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    }
    if (C == 't') {
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return literal("true", 4);
    }
    if (C == 'f') {
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return literal("false", 5);
    }
    if (C == 'n') {
      Out.K = Value::Kind::Null;
      return literal("null", 4);
    }
    if (C == '-' || (C >= '0' && C <= '9')) {
      std::size_t Start = Pos;
      if (Text[Pos] == '-')
        ++Pos;
      // JSON forbids leading zeros ("01"); strtod below would accept them.
      if (Pos + 1 < Text.size() && Text[Pos] == '0' &&
          std::isdigit(static_cast<unsigned char>(Text[Pos + 1]))) {
        Pos = Start;
        return fail("malformed number");
      }
      while (Pos < Text.size() &&
             (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
              Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      Out.K = Value::Kind::Number;
      char *End = nullptr;
      std::string Num = Text.substr(Start, Pos - Start);
      Out.Num = std::strtod(Num.c_str(), &End);
      if (End == Num.c_str() || *End != '\0') {
        Pos = Start;
        return fail("malformed number");
      }
      return true;
    }
    return fail("unexpected character");
  }
};

} // namespace

bool omega::api::json::parse(const std::string &Text, Value &Out,
                             std::string &Err) {
  Out = Value();
  Parser P{Text, 0, Err};
  if (!P.parseValue(Out))
    return false;
  P.skipWS();
  if (P.Pos != Text.size())
    return P.fail("trailing characters after document");
  return true;
}

std::string omega::api::json::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}
