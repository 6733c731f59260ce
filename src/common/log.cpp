#include "common/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_set>

namespace cgct {

namespace {

// Dedup state for warnOnce(). Guarded by a mutex: parallel sweep
// workers can race to report the same gate, and exactly one must win.
std::mutex g_warnOnceMutex;
std::unordered_set<std::string> g_warnOnceKeys;
unsigned g_warnOnceCount = 0;

/** "[<tag>] <component>: <message>\n" on stderr; no component part
 *  when @p component is null. */
void
emit(const char *tag, const char *component, const char *fmt,
     va_list args)
{
    std::fprintf(stderr, "[%s] ", tag);
    if (component)
        std::fprintf(stderr, "%s: ", component);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // namespace

bool
warnOnce(const std::string &key, const char *component, const char *fmt,
         ...)
{
    {
        std::lock_guard<std::mutex> lock(g_warnOnceMutex);
        if (!g_warnOnceKeys.insert(key).second)
            return false;
        ++g_warnOnceCount;
    }
    va_list args;
    va_start(args, fmt);
    emit("warn", component ? component : "cgct", fmt, args);
    va_end(args);
    return true;
}

unsigned
warnOnceFired()
{
    std::lock_guard<std::mutex> lock(g_warnOnceMutex);
    return g_warnOnceCount;
}

void
resetWarnOnceForTest()
{
    std::lock_guard<std::mutex> lock(g_warnOnceMutex);
    g_warnOnceKeys.clear();
    g_warnOnceCount = 0;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("panic", nullptr, fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("fatal", nullptr, fmt, args);
    va_end(args);
    std::exit(1);
}

} // namespace cgct
