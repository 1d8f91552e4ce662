// Error handling primitives shared by every dlsmech library.
//
// Precondition violations are programmer errors and throw
// dls::PreconditionError; domain failures (infeasible instance, malformed
// message, ...) throw more specific exceptions derived from dls::Error.
#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dls {

/// Root of the dlsmech exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// An algorithm received an instance it cannot solve (e.g. non-positive
/// processing rate, empty network).
class InfeasibleError : public Error {
 public:
  explicit InfeasibleError(const std::string& what) : Error(what) {}
};

namespace detail {

// Overloaded on the message type so a literal message never materializes
// a std::string temporary in the CALLER: DLS_HOT_NOALLOC functions (see
// common/discipline.hpp) use literal messages, and the temporary would
// be a heap allocation charged to the hot function itself rather than to
// this waivable cold helper.
[[noreturn]] inline void throw_precondition(const char* expr,
                                            const char* message,
                                            const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << ": precondition `" << expr
     << "` failed";
  if (message != nullptr && message[0] != '\0') os << ": " << message;
  throw PreconditionError(os.str());
}

[[noreturn]] inline void throw_precondition(const char* expr,
                                            const std::string& message,
                                            const std::source_location& loc) {
  throw_precondition(expr, message.c_str(), loc);
}

}  // namespace detail

}  // namespace dls

/// Check a documented precondition; throws dls::PreconditionError on
/// failure. Always enabled (the cost is trivial next to the numeric work).
#define DLS_REQUIRE(expr, message)                               \
  do {                                                           \
    if (!(expr)) {                                               \
      ::dls::detail::throw_precondition(                         \
          #expr, (message), std::source_location::current());    \
    }                                                            \
  } while (false)
