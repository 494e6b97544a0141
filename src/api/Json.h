//===- api/Json.h - Minimal JSON parsing for the request protocol --------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON reader for the pieces of the serving
/// stack that consume JSON: omega-serve's JSONL request lines and the
/// option objects embedded in them. It parses RFC 8259 documents with
/// full \uXXXX decoding (surrogate pairs combine to UTF-8; unpaired
/// surrogates are rejected), a bounded nesting depth so hostile input
/// fails cleanly instead of exhausting the stack, and byte-exact error
/// offsets for truncated input. Writing JSON stays string-building
/// (api/Response.h) so the response bytes are reproducible -- the
/// bit-identity gate diffs them directly.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_API_JSON_H
#define OMEGA_API_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace omega {
namespace api {
namespace json {

class Value;

/// Parsed JSON value. Objects keep insertion order (the protocol never
/// relies on it, but error messages stay readable).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  /// The number as an integer when it is integral and lies in [Lo, Hi],
  /// else nullopt. The range is checked on the double before any cast:
  /// converting an out-of-range double (a client's 1e30) to an integer is
  /// undefined behaviour.
  std::optional<int64_t> asIntIn(int64_t Lo, int64_t Hi) const;
  /// asIntIn over all of int64_t, 0 when the number is not such an
  /// integer. For documents whose shape is already known; validate client
  /// input with asIntIn.
  int64_t asInt() const;
  const std::string &asString() const { return Str; }
  const std::vector<Value> &asArray() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &asObject() const {
    return Obj;
  }

  /// Object member lookup; null when absent or not an object.
  const Value *get(const std::string &Key) const;

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text as one JSON document into \p Out, replacing whatever
/// \p Out held. On failure returns false and sets \p Err to a one-line
/// description with a byte offset.
bool parse(const std::string &Text, Value &Out, std::string &Err);

/// Escapes \p S for embedding in a JSON string literal (no quotes added).
std::string escape(const std::string &S);

} // namespace json
} // namespace api
} // namespace omega

#endif // OMEGA_API_JSON_H
