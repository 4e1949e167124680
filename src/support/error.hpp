// Error hierarchy for the V-cal library.
//
// All errors raised by the library derive from vcal::Error so callers can
// catch library failures with a single handler while still distinguishing
// the pipeline stage that failed.
#pragma once

#include <stdexcept>
#include <string>

namespace vcal {

/// Base class of every exception thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Lexical or syntactic error in a vexl source program.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, int col);
  int line() const noexcept { return line_; }
  int col() const noexcept { return col_; }

 private:
  int line_;
  int col_;
};

/// Name resolution, typing, or bounds error in a vexl program.
class SemanticError : public Error {
 public:
  using Error::Error;
};

/// The optimizer or SPMD builder was asked for something unsupported
/// (e.g. a non-invertible index function where an inverse is required).
class CodegenError : public Error {
 public:
  using Error::Error;
};

/// A failure while executing a generated program on one of the runtime
/// substrates (out-of-bounds access, transport timeout, ...).
class RuntimeFault : public Error {
 public:
  using Error::Error;
};

/// Internal invariant violation; always indicates a library bug.
class InternalError : public Error {
 public:
  using Error::Error;
};

/// Cold path of require(): always throws InternalError.
[[noreturn]] void raise_internal(const char* msg);

/// Throws InternalError when `cond` is false. Used for invariants that must
/// hold regardless of user input; user-input validation throws the specific
/// error classes above instead. The const char* overload is the one string
/// literals bind to: it is inline and builds the message only on failure,
/// so invariant checks in the executors' inner loops cost a single
/// predictable branch.
inline void require(bool cond, const char* msg) {
  if (!cond) raise_internal(msg);
}
void require(bool cond, const std::string& msg);

}  // namespace vcal
