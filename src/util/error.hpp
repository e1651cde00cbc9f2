#pragma once
// Error handling primitives shared by all AMDREL modules.
//
// The framework uses exceptions for unrecoverable input errors (bad file,
// unsynthesizable VHDL, unroutable design) and assertions (CHECK) for
// internal invariants.

#include <stdexcept>
#include <string>
#include <vector>

namespace amdrel {

/// Base class of all errors raised by the framework.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed or unsupported input (file format, VHDL subset violation, ...).
class ParseError : public Error {
 public:
  ParseError(std::string file, int line, const std::string& message)
      : Error(file + ':' + std::to_string(line) + ": " + message),
        file_(std::move(file)),
        line_(line) {}

  const std::string& file() const { return file_; }
  int line() const { return line_; }

 private:
  std::string file_;
  int line_;
};

/// A CAD stage could not produce a legal result (e.g. unroutable at the
/// requested channel width, cluster inputs exceeded).
class InfeasibleError : public Error {
 public:
  using Error::Error;
};

/// A long-running kernel observed a cooperative cancellation request (see
/// flow::FlowSession::cancel and route::RouteOptions::cancel) and stopped
/// before producing a result. Callers that own the cancellation flag catch
/// this to wind down cleanly; it never signals a correctness problem.
class CancelledError : public Error {
 public:
  using Error::Error;
};

/// One broken legality invariant of a stage artifact, reported by the
/// layer that builds the artifact: which invariant, the offending entity
/// ("cluster 3", "net 12") and what is wrong with it.
template <typename Kind>
struct Violation {
  Kind kind;
  std::string object;
  std::string message;
};

/// The throwing form of a layer's legality check: throws Error naming
/// the first of `violations`, if any.
template <typename Kind>
void throw_first(const std::vector<Violation<Kind>>& violations,
                 const char* artifact) {
  if (violations.empty()) return;
  throw Error(std::string(artifact) + " invariant violated: " +
              violations.front().object + ": " +
              violations.front().message);
}

namespace detail {
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& message);
}  // namespace detail

/// Internal invariant check; always enabled (CAD bugs silently corrupt QoR).
#define AMDREL_CHECK(expr)                                                \
  do {                                                                    \
    if (!(expr)) ::amdrel::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define AMDREL_CHECK_MSG(expr, msg)                                       \
  do {                                                                    \
    if (!(expr))                                                          \
      ::amdrel::detail::check_failed(#expr, __FILE__, __LINE__, (msg));   \
  } while (0)

}  // namespace amdrel
