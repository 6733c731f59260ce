/**
 * @file
 * The simulator's diagnostics, modeled on gem5's warn()/panic()/fatal():
 * a deduplicated warning for recoverable surprises, panic() for a
 * simulator bug, fatal() for a user or configuration error. All three
 * write one line to stderr.
 */

#pragma once

#include <string>

namespace cgct {

/**
 * Emit a warning at most once per process for @p key (deduplicated
 * across threads). Used for fallback diagnostics — e.g. a CLI flag that
 * a configuration gate silently ignores — where repeating the message
 * for every sweep cell would drown the output. @return true when this
 * call was the first (the message was emitted).
 */
bool warnOnce(const std::string &key, const char *component,
              const char *fmt, ...) __attribute__((format(printf, 3, 4)));

/** Number of distinct warnOnce() messages emitted so far (for tests). */
unsigned warnOnceFired();

/** Forget all warnOnce() keys (tests only). */
void resetWarnOnceForTest();

/**
 * Report an unrecoverable internal error (a simulator bug) and abort.
 * Mirrors gem5's panic(): never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a fatal user/configuration error and exit(1).
 * Mirrors gem5's fatal(): never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace cgct
