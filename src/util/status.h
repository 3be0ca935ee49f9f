// Error-handling helpers for the ArrayFlex library.
//
// The library follows a simple contract: precondition violations and
// malformed configurations throw af::Error (derived from std::runtime_error)
// with a formatted message.  Internal invariants use AF_ASSERT, which is
// active in debug builds and compiles to nothing under NDEBUG — the checks
// (tag-skew tracking, index bounds) sit on the simulator's innermost loops,
// and release builds exist to sweep big workloads.  AF_CHECK is always on
// regardless of build type.

#pragma once

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>

namespace af {

// Structured failure taxonomy carried by af::Error.  The serving layer's
// clients dispatch on it — a DeadlineExceeded is retried upstream with a
// longer budget, an Overloaded is shed or routed elsewhere, an EngineFault
// may be retried on another shard, a Shutdown is terminal — so the codes
// are a public contract alongside the registry names (README "Robustness").
enum class ErrorCode {
  kUnknown = 0,       // untyped failure (legacy throws)
  kInvalidArgument,   // precondition violation (every AF_CHECK)
  kDeadlineExceeded,  // request expired before it could be served
  kOverloaded,        // admission rejected / timed out under load shedding
  kEngineFault,       // execution engine threw while serving
  kShutdown,          // server closed while submitting or serving
  // The server was killed, quiesced or drained before this request could
  // run.  The crucial guarantee (vs kEngineFault): the request was NEVER
  // executed, so re-admitting it elsewhere cannot double-serve — this is
  // the fleet layer's failover signal (fleet/fleet.h).
  kUnavailable,
};

// Stable lower-case name of a code ("deadline_exceeded", ...), for error
// messages, stats dumps and the README taxonomy table.
const char* error_code_name(ErrorCode code);

// Exception thrown for user-visible errors (bad configs, size mismatches).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 ErrorCode code = ErrorCode::kUnknown)
      : std::runtime_error(what), code_(code) {}
  Error(const Error& other) noexcept
      : std::runtime_error(other), code_(other.code_) {}
  Error& operator=(const Error& other) noexcept {
    std::runtime_error::operator=(other);
    code_ = other.code_;
    return *this;
  }
  ~Error() override { (void)reads_.load(std::memory_order_acquire); }

  // One Error object is often shared by many promises (one exception_ptr
  // failing a whole batch), and the thread that drops the last reference
  // frees it, possibly after another thread's code() read.  The refcount
  // that orders the two lives in the uninstrumented C++ runtime, which
  // ThreadSanitizer cannot see; this release/acquire pair on reads_ is a
  // real happens-before edge from every code() read to the destructor.
  ErrorCode code() const {
    const ErrorCode code = code_;
    reads_.fetch_add(1, std::memory_order_release);
    return code;
  }

 private:
  ErrorCode code_;
  mutable std::atomic<unsigned> reads_{0};
};

namespace detail {

[[noreturn]] void throw_error(const char* file, int line, const std::string& msg);
[[noreturn]] void assert_fail(const char* file, int line, const char* expr,
                              const std::string& msg);

// Tiny stream-based message builder so call sites can write
//   AF_CHECK(x > 0, "x must be positive, got " << x);
class MessageBuilder {
 public:
  template <typename T>
  MessageBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace af

// User-facing precondition check: throws af::Error when violated.
#define AF_CHECK(cond, msg)                                               \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::af::detail::throw_error(__FILE__, __LINE__,                      \
                                (::af::detail::MessageBuilder() << msg).str()); \
    }                                                                     \
  } while (false)

// Internal invariant check: aborts with a diagnostic when violated.
// Compiled out under NDEBUG (the operand is not evaluated; `sizeof`
// keeps variables referenced so release builds stay warning-clean).
#ifdef NDEBUG
#define AF_ASSERT(cond, msg)            \
  do {                                  \
    (void)sizeof((cond) ? 1 : 0);       \
  } while (false)
#else
#define AF_ASSERT(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::af::detail::assert_fail(__FILE__, __LINE__, #cond,               \
                                (::af::detail::MessageBuilder() << msg).str()); \
    }                                                                     \
  } while (false)
#endif
