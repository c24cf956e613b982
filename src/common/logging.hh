/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user errors (bad configuration, invalid
 * arguments) and exits cleanly; warn() reports a condition without
 * stopping the simulation.
 */

#ifndef PLUTO_COMMON_LOGGING_HH
#define PLUTO_COMMON_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <string>

namespace pluto
{

/** Severity of a log message. */
enum class LogLevel
{
    Warn,
    Fatal,
    Panic,
};

/**
 * Global threshold: messages below it are dropped. Warn (the default)
 * prints everything; Fatal drops warn(). fatal()/panic() always print.
 */
void setLogThreshold(LogLevel level);

/** @return the current threshold. */
LogLevel logThreshold();

/**
 * Parse a --log-level value ("warn", "error"/"quiet").
 * @return true and set `out` on success.
 */
bool parseLogLevel(const std::string &name, LogLevel &out);

/** Report a warning to stderr. Never stops the simulation. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * warn(), but each call site fires at most once per process — the
 * tool for per-worker hot-path conditions that would otherwise spam
 * stderr N-threads (or N-cells) times. Thread-safe; the first caller
 * prints, every later call (any thread) is counted and dropped. The
 * suppressed-repeat count is appended when the process already
 * printed the site's message.
 *
 * Usage: warnOnce("service '%s': lanes clamped", name) fires once
 * for the *call site*, not once per distinct message.
 */
#define warnOnce(...)                                                    \
    do {                                                                 \
        static ::pluto::WarnOnceState pluto_warn_once_state;             \
        ::pluto::warnOnceImpl(pluto_warn_once_state, __VA_ARGS__);       \
    } while (0)

/** Per-call-site state behind warnOnce() (zero-initialized). */
struct WarnOnceState
{
    std::atomic<unsigned long long> count{0};
};

/** Implementation detail of warnOnce(); use the macro. */
void warnOnceImpl(WarnOnceState &state, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Report a user-caused error and exit(1). Use for bad configuration or
 * invalid arguments, not for simulator bugs.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and abort(). Use for
 * conditions that should never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * panic() unless the condition holds.
 *
 * Assert policy: PLUTO_ASSERT guards internal invariants on hot
 * functional paths (packed-element bounds, span sizes) and compiles
 * out entirely under NDEBUG, so Release builds pay nothing per
 * element. User-input validation must use fatal(), and semantic
 * checks that define simulator behavior (e.g. LUT-index range in a
 * query) must use an explicit panic() — both stay active in every
 * build type. CI keeps a debug-checked configuration (the ASan job
 * builds without NDEBUG) so the asserts still run on every change.
 */
#ifdef NDEBUG
#define PLUTO_ASSERT(cond, ...)                                          \
    do {                                                                 \
        (void)sizeof((cond));                                            \
    } while (0)
#else
#define PLUTO_ASSERT(cond, ...)                                          \
    do {                                                                 \
        if (!(cond))                                                     \
            ::pluto::panic("assertion failed: %s: " #cond, __func__);    \
    } while (0)
#endif

} // namespace pluto

#endif // PLUTO_COMMON_LOGGING_HH
