#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace pluto
{

namespace
{
LogLevel g_threshold = LogLevel::Warn;

void
vreport(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setLogThreshold(LogLevel level)
{
    g_threshold = level;
}

LogLevel
logThreshold()
{
    return g_threshold;
}

bool
parseLogLevel(const std::string &name, LogLevel &out)
{
    if (name == "warn") {
        out = LogLevel::Warn;
    } else if (name == "error" || name == "quiet") {
        out = LogLevel::Fatal;
    } else {
        return false;
    }
    return true;
}

void
warn(const char *fmt, ...)
{
    if (g_threshold > LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
warnOnceImpl(WarnOnceState &state, const char *fmt, ...)
{
    // One atomic increment per call; only the first caller prints
    // (suppression also applies when warnings are below threshold —
    // the count still advances so a later summary stays accurate).
    const auto n = state.count.fetch_add(1, std::memory_order_relaxed);
    if (n != 0 || g_threshold > LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
    std::fprintf(stderr,
                 "warn: (the preceding warning fires once; further "
                 "occurrences at this site are suppressed)\n");
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace pluto
