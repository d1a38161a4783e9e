// Lightweight runtime checking macros.
//
// KRSP_CHECK is always active (library invariants, precondition violations
// are programmer errors and throw); KRSP_DCHECK compiles out in NDEBUG
// builds and is used on hot paths.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace krsp::util {

/// Error thrown when a KRSP_CHECK fails. Distinct from std::logic_error so
/// tests can assert on the library's own invariant failures specifically.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "KRSP_CHECK failed: (" << cond << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail

}  // namespace krsp::util

#define KRSP_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      ::krsp::util::detail::check_failed(#cond, __FILE__, __LINE__, "");     \
  } while (0)

#define KRSP_CHECK_MSG(cond, msg)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::ostringstream krsp_check_os_;                                     \
      krsp_check_os_ << msg;                                                 \
      ::krsp::util::detail::check_failed(#cond, __FILE__, __LINE__,          \
                                         krsp_check_os_.str());              \
    }                                                                        \
  } while (0)

#ifdef NDEBUG
#define KRSP_DCHECK(cond) \
  do {                    \
  } while (0)
#else
#define KRSP_DCHECK(cond) KRSP_CHECK(cond)
#endif

namespace krsp::util {

namespace detail {

[[noreturn, gnu::cold, gnu::noinline]] inline void overflow_failed(
    const char* what) {
  throw CheckError(std::string(what) + " overflows int64");
}

}  // namespace detail

/// a + b and a · b for weights that come from user input: a result outside
/// int64 throws CheckError naming `what` instead of wrapping. The failure
/// path is out of line so both stay cheap inside per-arc loops.
inline std::int64_t checked_add(std::int64_t a, std::int64_t b,
                                const char* what) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) detail::overflow_failed(what);
  return r;
}

inline std::int64_t checked_mul(std::int64_t a, std::int64_t b,
                                const char* what) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) detail::overflow_failed(what);
  return r;
}

}  // namespace krsp::util
